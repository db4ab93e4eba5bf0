package index

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"zerberr/internal/corpus"
)

// Serialization format (all integers unsigned varints):
//
//	magic "ZIDX1" | numDocs | numTerms |
//	  numTerms × ( termID | listLen | listLen × (doc tf docLen) )
//
// Terms are written in ascending ID order; postings keep their
// score-sorted order so a reader can serve top-k immediately.

var indexMagic = []byte("ZIDX1")

// ErrBadFormat reports a corrupted or truncated serialized index.
var ErrBadFormat = errors.New("index: bad serialized format")

// WriteTo serializes the index. It implements io.WriterTo.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	if _, err := bw.Write(indexMagic); err != nil {
		return cw.n, err
	}
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := writeUvarint(uint64(ix.numDocs)); err != nil {
		return cw.n, err
	}
	if err := writeUvarint(uint64(len(ix.lists))); err != nil {
		return cw.n, err
	}
	for _, t := range ix.Terms() {
		list := ix.lists[t]
		if err := writeUvarint(uint64(t)); err != nil {
			return cw.n, err
		}
		if err := writeUvarint(uint64(len(list))); err != nil {
			return cw.n, err
		}
		for _, p := range list {
			if err := writeUvarint(uint64(p.Doc)); err != nil {
				return cw.n, err
			}
			if err := writeUvarint(uint64(p.TF)); err != nil {
				return cw.n, err
			}
			if err := writeUvarint(uint64(p.DocLen)); err != nil {
				return cw.n, err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// Read deserializes an index previously written with WriteTo.
func Read(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(indexMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: missing magic: %v", ErrBadFormat, err)
	}
	if string(magic) != string(indexMagic) {
		return nil, fmt.Errorf("%w: magic %q", ErrBadFormat, magic)
	}
	readUvarint := func() (uint64, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("%w: %v", ErrBadFormat, err)
		}
		return v, nil
	}
	numDocs, err := readUvarint()
	if err != nil {
		return nil, err
	}
	numTerms, err := readUvarint()
	if err != nil {
		return nil, err
	}
	ix := New()
	ix.numDocs = int(numDocs)
	for i := uint64(0); i < numTerms; i++ {
		term, err := readUvarint()
		if err != nil {
			return nil, err
		}
		listLen, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if listLen > uint64(numDocs) {
			return nil, fmt.Errorf("%w: posting list longer than collection (%d > %d)", ErrBadFormat, listLen, numDocs)
		}
		// Grown by append, not sized by the claimed length: a corrupted
		// count runs into the end of the input before it allocates more
		// than a small multiple of what was read.
		var list []Posting
		for j := uint64(0); j < listLen; j++ {
			doc, err := readUvarint()
			if err != nil {
				return nil, err
			}
			tf, err := readUvarint()
			if err != nil {
				return nil, err
			}
			docLen, err := readUvarint()
			if err != nil {
				return nil, err
			}
			list = append(list, Posting{Doc: corpus.DocID(doc), TF: uint32(tf), DocLen: uint32(docLen)})
		}
		ix.lists[corpus.TermID(term)] = list
	}
	return ix, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
