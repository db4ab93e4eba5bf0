package crypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"zerberr/internal/corpus"
)

// Element is the plaintext content of one posting element: the
// document and term identifiers plus the raw relevance score of
// Equation 4, all of which must be hidden from the index server.
// The server-visible TRS travels alongside the sealed element, not
// inside it.
type Element struct {
	Doc   corpus.DocID
	Term  corpus.TermID
	Score float64
}

// ElementCodec seals and opens posting elements under a group key.
// Implementations have a fixed wire size so response byte counts are
// predictable (Section 6.6).
type ElementCodec interface {
	// Seal encrypts the element.
	Seal(el Element, key GroupKey) ([]byte, error)
	// Open decrypts and validates a sealed element.
	Open(ct []byte, key GroupKey) (Element, error)
	// WireSize returns the sealed element size in bytes.
	WireSize() int
	// Name identifies the codec in artifacts and experiment output.
	Name() string
}

// ErrDecrypt reports a failed decryption: wrong key, tampering or a
// malformed ciphertext.
var ErrDecrypt = errors.New("crypt: cannot decrypt element")

// GCMCodec is the secure default codec: AES-256-GCM with a random
// nonce over the 16-byte packed element. Wire size: 12 (nonce) + 16
// (payload) + 16 (tag) = 44 bytes.
type GCMCodec struct {
	// Rand supplies nonces; nil means crypto/rand.Reader.
	Rand io.Reader
}

// GCM element layout: nonce ‖ packed element ‖ tag.
const (
	gcmNonce   = 12
	gcmPayload = 16
	gcmTag     = 16
)

// Name implements ElementCodec.
func (GCMCodec) Name() string { return "aes-gcm" }

// WireSize implements ElementCodec.
func (GCMCodec) WireSize() int { return gcmNonce + gcmPayload + gcmTag }

// Seal implements ElementCodec.
func (c GCMCodec) Seal(el Element, key GroupKey) ([]byte, error) {
	aead, err := key.elementAEAD()
	if err != nil {
		return nil, err
	}
	rnd := c.Rand
	if rnd == nil {
		rnd = rand.Reader
	}
	// One buffer: the nonce is read into its head and the element is
	// packed behind it and sealed where it lies.
	out := make([]byte, gcmNonce+gcmPayload, c.WireSize())
	nonce, pt := out[:gcmNonce], out[gcmNonce:]
	if _, err := io.ReadFull(rnd, nonce); err != nil {
		return nil, fmt.Errorf("crypt: nonce: %w", err)
	}
	binary.BigEndian.PutUint32(pt[0:4], uint32(el.Doc))
	binary.BigEndian.PutUint32(pt[4:8], uint32(el.Term))
	binary.BigEndian.PutUint64(pt[8:16], math.Float64bits(el.Score))
	return aead.Seal(nonce, nonce, pt, nil), nil
}

// Open implements ElementCodec.
func (c GCMCodec) Open(ct []byte, key GroupKey) (Element, error) {
	aead, err := key.elementAEAD()
	if err != nil {
		return Element{}, err
	}
	if len(ct) != c.WireSize() {
		return Element{}, fmt.Errorf("%w: wrong size %d", ErrDecrypt, len(ct))
	}
	var buf [gcmPayload]byte
	pt, err := aead.Open(buf[:0], ct[:gcmNonce], ct[gcmNonce:], nil)
	if err != nil {
		return Element{}, fmt.Errorf("%w: %v", ErrDecrypt, err)
	}
	if len(pt) != gcmPayload {
		return Element{}, fmt.Errorf("%w: payload size %d", ErrDecrypt, len(pt))
	}
	return Element{
		Doc:   corpus.DocID(binary.BigEndian.Uint32(pt[0:4])),
		Term:  corpus.TermID(binary.BigEndian.Uint32(pt[4:8])),
		Score: math.Float64frombits(binary.BigEndian.Uint64(pt[8:16])),
	}, nil
}

// Compact64Codec packs (doc:24, term:20, quantized score:20) into
// exactly 8 bytes and encrypts them with a 4-round Feistel permutation
// whose round function is AES-based. This reproduces the paper's
// Section 6.6 assumption of 64-bit posting elements for bandwidth
// accounting.
//
// Security note: a 64-bit block with no authentication tag trades
// integrity and block-level indistinguishability for wire size —
// exactly the trade the 2009 system made. Production deployments
// should prefer GCMCodec; the experiments use Compact64Codec only for
// byte-accounting parity with the paper.
type Compact64Codec struct{}

// Name implements ElementCodec.
func (Compact64Codec) Name() string { return "compact64" }

// WireSize implements ElementCodec.
func (Compact64Codec) WireSize() int { return 8 }

// Compact64 field widths.
const (
	compactDocBits   = 24
	compactTermBits  = 20
	compactScoreBits = 20
	scoreQuantMax    = 1<<compactScoreBits - 1
)

// ErrFieldOverflow reports an element that does not fit the compact
// 64-bit layout.
var ErrFieldOverflow = errors.New("crypt: element exceeds compact64 field widths")

// QuantizeScore maps a relevance score in [0,1] to the 20-bit level
// the compact codec stores. Scores outside [0,1] are clamped.
func QuantizeScore(s float64) uint32 {
	if s < 0 || math.IsNaN(s) {
		s = 0
	}
	if s > 1 {
		s = 1
	}
	return uint32(math.Round(s * scoreQuantMax))
}

// DequantizeScore inverts QuantizeScore up to quantization error
// (about 5e-7, far below score gaps at realistic document lengths).
func DequantizeScore(q uint32) float64 {
	return float64(q) / scoreQuantMax
}

// Seal implements ElementCodec.
func (Compact64Codec) Seal(el Element, key GroupKey) ([]byte, error) {
	if el.Doc >= 1<<compactDocBits || el.Term >= 1<<compactTermBits {
		return nil, fmt.Errorf("%w: doc %d term %d", ErrFieldOverflow, el.Doc, el.Term)
	}
	q := uint64(QuantizeScore(el.Score))
	block := uint64(el.Doc)<<(compactTermBits+compactScoreBits) |
		uint64(el.Term)<<compactScoreBits | q
	enc, err := feistelEncrypt(block, key)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, enc)
	return out, nil
}

// Open implements ElementCodec.
func (Compact64Codec) Open(ct []byte, key GroupKey) (Element, error) {
	if len(ct) != 8 {
		return Element{}, fmt.Errorf("%w: wrong size %d", ErrDecrypt, len(ct))
	}
	block, err := feistelDecrypt(binary.BigEndian.Uint64(ct), key)
	if err != nil {
		return Element{}, err
	}
	doc := corpus.DocID(block >> (compactTermBits + compactScoreBits) & (1<<compactDocBits - 1))
	term := corpus.TermID(block >> compactScoreBits & (1<<compactTermBits - 1))
	q := uint32(block & scoreQuantMax)
	return Element{Doc: doc, Term: term, Score: DequantizeScore(q)}, nil
}

// feistelRounds is the number of Feistel rounds; four rounds of a
// strong PRF yield a strong pseudorandom permutation (Luby-Rackoff).
const feistelRounds = 4

// feistelNet is one pass of the Feistel network under a key: the AES
// block and the round function's input and output blocks, written
// once per Seal or Open and reused by every round.
type feistelNet struct {
	block   cipher.Block
	in, out [aes.BlockSize]byte
}

func newFeistelNet(key GroupKey) (*feistelNet, error) {
	block, err := key.feistelBlock()
	if err != nil {
		return nil, err
	}
	f := &feistelNet{block: block}
	copy(f.in[5:], "zerberr/feistel")
	return f, nil
}

// round computes the AES-based round function F(half, round).
func (f *feistelNet) round(half uint32, round int) uint32 {
	binary.BigEndian.PutUint32(f.in[0:4], half)
	f.in[4] = byte(round)
	f.block.Encrypt(f.out[:], f.in[:])
	return binary.BigEndian.Uint32(f.out[:4])
}

// feistelEncrypt applies the 4-round balanced Feistel network to a
// 64-bit block.
func feistelEncrypt(v uint64, key GroupKey) (uint64, error) {
	f, err := newFeistelNet(key)
	if err != nil {
		return 0, err
	}
	l, r := uint32(v>>32), uint32(v)
	for round := 0; round < feistelRounds; round++ {
		l, r = r, l^f.round(r, round)
	}
	return uint64(l)<<32 | uint64(r), nil
}

// feistelDecrypt inverts feistelEncrypt.
func feistelDecrypt(v uint64, key GroupKey) (uint64, error) {
	f, err := newFeistelNet(key)
	if err != nil {
		return 0, err
	}
	l, r := uint32(v>>32), uint32(v)
	for round := feistelRounds - 1; round >= 0; round-- {
		l, r = r^f.round(l, round), l
	}
	return uint64(l)<<32 | uint64(r), nil
}
