package server

// The binary frame: the body of every protocol message — the /v2/query
// request and response and the /v2/insert and /v2/remove requests.
// This file is the only home of its grammar; the element inside it is
// the record the write-ahead log and the snapshot already write
// (store.AppendElement / store.ReadElement), and the token is
// crypt.AppendToken's. Integers are unsigned varints unless noted, in
// their shortest form (the decoders read through binfmt.Reader, which
// refuses a longer one, so a frame has one encoding); hashes are raw
// 32 bytes. A list version is 8
// bytes big-endian: its high half is a random epoch, so a varint would
// save nothing and would make a message's size depend on the epoch
// drawn.
//
//	frame:  magic "ZWF" | version (1B, = 1) | kind (1B) |
//	        bodyLen (4B big-endian) | body
//
//	kind 'q', query request:
//	  body:     tokenCount | tokenCount × token | count | count × subquery
//	  subquery: listDelta | offset | count |
//	            qflags (1B: 1 ifVersion follows, 2 proof,
//	                    4 proofFrom follows, 8 ifTag follows) |
//	            [ifVersion (8B)] | [proofFrom (8B)] | [ifTag (16B)]
//	  (ifTag only beside ifVersion and without proof)
//	  (listDelta is the op lists' signed delta against the sub-query
//	  before, the first against 0)
//
//	kind 'Q', query response:
//	  body:    count | count × window
//	  window:  flags (1B: 1 exhausted, 2 unchanged, 4 proof follows,
//	                  8 the proof is a continuation) |
//	           version (8B) | numElems | numElems × element | [proof]
//	  proof:   version (8B) | root (32B) | numGroups | numGroups × group
//	  group:   group (signed varint) | gflags (1B: 1 opaque, 0 proved) |
//	           opaque:  header hash (32B)
//	           proved:  count | root (32B) | buckets | first | last |
//	                    start | end | edge (pred) | edge (succ) |
//	                    pathLen | pathLen × node
//	  edge:    n (at most proof.MaxBucket) | n × element
//	           (an edge element travels as an element of its own group)
//	  node:    count (at least 1, below 2^32) | root (32B)
//	  continuation group (flags 4|8; proof.Continue): proved groups only,
//	           group (signed varint) | end | edge (succ) |
//	           pathLen | pathLen × node
//
//	kind 'I', insert request:
//	  body:    token | insert op list
//	kind 'R', remove request:
//	  body:    token | remove op list
//
// The op lists are the store's (store.AppendInserts / ReadInserts and
// the remove pair): the bytes a write-ahead log batch record holds after
// its seq and kind.
//
// Ownership: decoded payloads and token MACs — of responses and of
// requests alike — alias the body, capped to their own length; whoever
// retains one past the call copies it at the point of retention. The
// store is one such point (it copies an inserted payload into its
// list's slab, so a pooled request buffer is free again once the
// insert returns), the cluster router's window cache is the other.
//
// A decoder trusts no length it reads: every count is bounded by the
// bytes that remain before anything is allocated for it.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"zerberr/internal/binfmt"
	"zerberr/internal/crypt"
	"zerberr/internal/proof"
	"zerberr/internal/store"
	"zerberr/internal/zerber"
)

const (
	wireMagic   = "ZWF"
	wireVersion = 1

	frameQueryRequest  byte = 'q'
	frameQueryResponse byte = 'Q'
	frameInsertRequest byte = 'I'
	frameRemoveRequest byte = 'R'

	wireHeaderLen = len(wireMagic) + 2 + 4

	queryIfVersion byte = 1
	queryProof     byte = 2
	queryProofFrom byte = 4
	queryIfTag     byte = 8

	windowExhausted byte = 1
	windowUnchanged byte = 2
	windowProved    byte = 4
	windowContinued byte = 8

	groupOpaque byte = 1
)

// FrameContentType labels a binary frame body.
const FrameContentType = "application/x-zerber-frame"

// ErrBadFrame reports bytes that are not a well-formed frame of the
// expected kind. It is a bad request when a client sent them; a client
// handed them by a server treats the exchange as failed.
var ErrBadFrame = fmt.Errorf("%w: bad wire frame", ErrBadRequest)

func badFrame(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadFrame, fmt.Sprintf(format, args...))
}

// beginFrame appends the header with a zero body length; endFrame
// patches the length in once the body is appended.
func beginFrame(buf []byte, kind byte) (out []byte, start int) {
	start = len(buf)
	buf = append(buf, wireMagic...)
	buf = append(buf, wireVersion, kind, 0, 0, 0, 0)
	return buf, start
}

func endFrame(buf []byte, start int) []byte {
	body := len(buf) - start - wireHeaderLen
	binary.BigEndian.PutUint32(buf[start+wireHeaderLen-4:], uint32(body))
	return buf
}

// openFrame checks the header and returns a reader of the body, which
// must be all that follows: a truncated frame and trailing bytes are
// both errors.
func openFrame(b []byte, kind byte) (wireReader, error) {
	if len(b) < wireHeaderLen || string(b[:len(wireMagic)]) != wireMagic {
		if len(b) > 0 && (b[0] == '{' || b[0] == '[') {
			return wireReader{}, badFrame("body is JSON, not a binary frame (magic %q)", wireMagic)
		}
		return wireReader{}, badFrame("missing magic %q", wireMagic)
	}
	if v := b[len(wireMagic)]; v != wireVersion {
		return wireReader{}, badFrame("version %d, want %d", v, wireVersion)
	}
	if k := b[len(wireMagic)+1]; k != kind {
		return wireReader{}, badFrame("kind %q, want %q", k, kind)
	}
	body := b[wireHeaderLen:]
	if n := binary.BigEndian.Uint32(b[wireHeaderLen-4:]); uint64(n) != uint64(len(body)) {
		return wireReader{}, badFrame("header claims %d body bytes, %d follow", n, len(body))
	}
	return wireReader{binfmt.NewReader(body, ErrBadFrame)}, nil
}

// AppendQueryResponse appends the /v2/query response frame. It
// allocates only when buf must grow.
func AppendQueryResponse(buf []byte, resps []QueryResponse) []byte {
	buf, start := beginFrame(buf, frameQueryResponse)
	buf = binary.AppendUvarint(buf, uint64(len(resps)))
	for i := range resps {
		r := &resps[i]
		var flags byte
		if r.Exhausted {
			flags |= windowExhausted
		}
		if r.Unchanged {
			flags |= windowUnchanged
		}
		if r.Proof != nil {
			flags |= windowProved
			if r.Proof.Continued {
				flags |= windowContinued
			}
		}
		buf = append(buf, flags)
		buf = binary.BigEndian.AppendUint64(buf, r.Version)
		buf = binary.AppendUvarint(buf, uint64(len(r.Elements)))
		for _, el := range r.Elements {
			buf = store.AppendElement(buf, el)
		}
		if r.Proof != nil {
			buf = appendProof(buf, r.Proof)
		}
	}
	return endFrame(buf, start)
}

func appendProof(buf []byte, w *proof.Window) []byte {
	buf = binary.BigEndian.AppendUint64(buf, w.Version)
	buf = append(buf, w.Root[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(w.Groups)))
	for i := range w.Groups {
		gw := &w.Groups[i]
		buf = binary.AppendVarint(buf, int64(gw.Group))
		if !w.Continued {
			if gw.Opaque != nil {
				buf = append(buf, groupOpaque)
				buf = append(buf, gw.Opaque[:]...)
				continue
			}
			buf = append(buf, 0)
			buf = binary.AppendUvarint(buf, uint64(gw.Count))
			var root proof.Hash
			if gw.Root != nil {
				root = *gw.Root
			}
			buf = append(buf, root[:]...)
			buf = binary.AppendUvarint(buf, uint64(gw.Buckets))
			buf = binary.AppendUvarint(buf, uint64(gw.First))
			buf = binary.AppendUvarint(buf, uint64(gw.Start))
		}
		buf = binary.AppendUvarint(buf, uint64(gw.End))
		if !w.Continued {
			buf = appendEdge(buf, gw.Pred, gw.Group)
		}
		buf = appendEdge(buf, gw.Succ, gw.Group)
		buf = binary.AppendUvarint(buf, uint64(len(gw.Path)))
		for j := range gw.Path {
			buf = binary.AppendUvarint(buf, uint64(gw.Path[j].Count))
			buf = append(buf, gw.Path[j].Root[:]...)
		}
	}
	return buf
}

func appendEdge(buf []byte, edge []proof.Boundary, group int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(edge)))
	for _, b := range edge {
		buf = store.AppendElement(buf, store.Element{Sealed: b.Sealed, TRS: b.TRS, Group: group})
	}
	return buf
}

// wireReader walks a frame body: the shared cursor (binfmt.Reader),
// whose failures wrap ErrBadFrame, and the frame's own structures.
type wireReader struct{ binfmt.Reader }

func (r *wireReader) hash() (h proof.Hash) {
	copy(h[:], r.Bytes(proof.HashSize))
	return h
}

// Shortest encodings, for bounding claimed counts: a window is flags,
// version and an element count; a proof group is a group ID, flags and
// one hash; a continuation group is a group ID, end, an edge count and
// a path length; a sub-query is a list delta, offset, count and flags.
const (
	minWindowBytes    = 1 + 8 + 1
	minGroupBytes     = 2 + proof.HashSize
	minContGroupBytes = 4
	minSubQueryBytes  = 4
)

// AppendQueryRequest appends the /v2/query request frame. It allocates
// only when buf must grow.
func AppendQueryRequest(buf []byte, toks []crypt.Token, queries []ListQuery) []byte {
	buf, start := beginFrame(buf, frameQueryRequest)
	buf = binary.AppendUvarint(buf, uint64(len(toks)))
	for _, tok := range toks {
		buf = crypt.AppendToken(buf, tok)
	}
	buf = binary.AppendUvarint(buf, uint64(len(queries)))
	prev := zerber.ListID(0)
	for i := range queries {
		q := &queries[i]
		buf = store.AppendListDelta(buf, q.List, prev)
		prev = q.List
		buf = binary.AppendUvarint(buf, uint64(q.Offset))
		buf = binary.AppendUvarint(buf, uint64(q.Count))
		var flags byte
		if q.IfVersion != nil {
			flags |= queryIfVersion
		}
		if q.Proof {
			flags |= queryProof
		}
		if q.ProofFrom != nil {
			flags |= queryProofFrom
		}
		if q.IfTag != nil {
			flags |= queryIfTag
		}
		buf = append(buf, flags)
		if q.IfVersion != nil {
			buf = binary.BigEndian.AppendUint64(buf, *q.IfVersion)
		}
		if q.ProofFrom != nil {
			buf = binary.BigEndian.AppendUint64(buf, *q.ProofFrom)
		}
		if q.IfTag != nil {
			buf = append(buf, q.IfTag[:]...)
		}
	}
	return endFrame(buf, start)
}

// DecodeQueryRequest decodes a /v2/query request frame. The tokens'
// MACs alias body; the server is done with them once QueryBatch has
// checked them. A sub-query the frame cannot hold — a negative offset
// or count sent as its two's complement, a truncated field, or a tag
// QueryBatch would refuse (checkTag) — fails as a *BatchError with its
// index, as one QueryBatch refuses does. Both counts are bounded by
// the bytes that remain, and the sub-query count by MaxBatchOps, before
// anything is allocated for them.
func DecodeQueryRequest(body []byte) ([]crypt.Token, []ListQuery, error) {
	r, err := openFrame(body, frameQueryRequest)
	if err != nil {
		return nil, nil, err
	}
	var toks []crypt.Token
	if n := r.Count("tokens", crypt.MinTokenBytes); n > 0 {
		toks = make([]crypt.Token, n)
		user := ""
		for i := range toks {
			toks[i] = crypt.ReadToken(&r.Reader, user)
			user = toks[i].User
		}
	}
	n := r.Count("sub-queries", minSubQueryBytes)
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	if err := checkBatchSize(n); err != nil {
		return nil, nil, err
	}
	queries := make([]ListQuery, n)
	// IfVersion and ProofFrom point into versions, and IfTag into tags,
	// each allocated once, at the first of them, with room for every one
	// the sub-queries left can hold.
	var versions []uint64
	pin := func(left int) *uint64 {
		if versions == nil {
			versions = make([]uint64, 0, 2*left)
		}
		versions = append(versions, r.Uint64())
		return &versions[len(versions)-1]
	}
	var tags []WindowTag
	pinTag := func(left int) *WindowTag {
		if tags == nil {
			tags = make([]WindowTag, 0, left)
		}
		tags = append(tags, WindowTag{})
		t := &tags[len(tags)-1]
		copy(t[:], r.Bytes(TagSize))
		return t
	}
	list := zerber.ListID(0)
	for i := range queries {
		q := &queries[i]
		list = store.ReadListDelta(&r.Reader, list)
		q.List, q.Offset, q.Count = list, r.Int(), r.Int()
		flags := r.Byte()
		if flags&^(queryIfVersion|queryProof|queryProofFrom|queryIfTag) != 0 {
			r.Fail("unknown sub-query flags %#x", flags)
		}
		q.Proof = flags&queryProof != 0
		if flags&queryIfVersion != 0 {
			q.IfVersion = pin(n - i)
		}
		if flags&queryProofFrom != 0 {
			q.ProofFrom = pin(n - i)
		}
		if flags&queryIfTag != 0 {
			q.IfTag = pinTag(n - i)
		}
		if err := r.Err(); err != nil {
			return nil, nil, &BatchError{Index: i, Err: err}
		}
		if err := checkTag(*q); err != nil {
			return nil, nil, &BatchError{Index: i, Err: err}
		}
	}
	if err := r.End(); err != nil {
		return nil, nil, err
	}
	return toks, queries, nil
}

// DecodeQueryResponse decodes a /v2/query response frame. Every Sealed
// payload (edge element payloads included) aliases body; an empty window
// decodes to nil Elements, an empty group list or path to nil.
func DecodeQueryResponse(body []byte) ([]QueryResponse, error) {
	r, err := openFrame(body, frameQueryResponse)
	if err != nil {
		return nil, err
	}
	out := make([]QueryResponse, r.Count("windows", minWindowBytes))
	for i := range out {
		w := &out[i]
		flags := r.Byte()
		if flags&^(windowExhausted|windowUnchanged|windowProved|windowContinued) != 0 {
			r.Fail("window %d: unknown flags %#x", i, flags)
		}
		if flags&(windowProved|windowContinued) == windowContinued {
			r.Fail("window %d: continuation flag without a proof", i)
		}
		w.Exhausted = flags&windowExhausted != 0
		w.Unchanged = flags&windowUnchanged != 0
		w.Version = r.Uint64()
		if n := r.Count("elements", store.MinElementBytes); n > 0 {
			w.Elements = make([]StoredElement, n)
			for j := range w.Elements {
				w.Elements[j] = store.ReadElement(&r.Reader)
			}
		}
		if flags&windowProved != 0 {
			w.Proof = r.proof(flags&windowContinued != 0)
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	return out, nil
}

func (r *wireReader) proof(continued bool) *proof.Window {
	w := &proof.Window{Version: r.Uint64(), Root: r.hash(), Continued: continued}
	minBytes := minGroupBytes
	if continued {
		minBytes = minContGroupBytes
	}
	n := r.Count("proof groups", minBytes)
	if n == 0 || r.Err() != nil {
		return w
	}
	w.Groups = make([]proof.GroupWindow, n)
	for i := range w.Groups {
		gw := &w.Groups[i]
		gw.Group = int(r.Varint())
		if !continued {
			switch flags := r.Byte(); flags {
			case groupOpaque:
				h := r.hash()
				gw.Opaque = &h
				continue
			case 0:
			default:
				r.Fail("proof group %d: flags %#x", gw.Group, flags)
			}
			gw.Count = r.Int()
			root := r.hash()
			gw.Root = &root
			gw.Buckets = r.Int()
			gw.First = r.Int()
			gw.Start = r.Int()
		}
		gw.End = r.Int()
		if !continued {
			gw.Pred = r.edge(gw.Group)
		}
		gw.Succ = r.edge(gw.Group)
		if p := r.Count("path nodes", 1+proof.HashSize); p > 0 {
			gw.Path = make([]proof.Node, p)
			for j := range gw.Path {
				if c := r.Uvarint(); c < 1 || c > math.MaxUint32 {
					r.Fail("proof group %d: a path node counting %d elements", gw.Group, c)
				} else {
					gw.Path[j].Count = int(c)
				}
				gw.Path[j].Root = r.hash()
			}
		}
		if r.Err() != nil {
			return w
		}
	}
	return w
}

// edge reads the edge elements of one proof group, nil for none.
func (r *wireReader) edge(group int) []proof.Boundary {
	n := r.Count("edge elements", store.MinElementBytes)
	if n > proof.MaxBucket {
		r.Fail("proof group %d: an edge of %d elements", group, n)
	}
	if n == 0 || r.Err() != nil {
		return nil
	}
	edge := make([]proof.Boundary, n)
	for i := range edge {
		el := store.ReadElement(&r.Reader)
		if r.Err() == nil && el.Group != group {
			r.Fail("edge element of group %d inside proof group %d", el.Group, group)
		}
		edge[i] = proof.Boundary{TRS: el.TRS, Sealed: el.Sealed}
	}
	return edge
}

// AppendInsertRequest appends the /v2/insert request frame.
func AppendInsertRequest(buf []byte, tok crypt.Token, ops []InsertOp) []byte {
	buf, start := beginFrame(buf, frameInsertRequest)
	return endFrame(store.AppendInserts(crypt.AppendToken(buf, tok), ops), start)
}

// AppendRemoveRequest appends the /v2/remove request frame.
func AppendRemoveRequest(buf []byte, tok crypt.Token, ops []RemoveOp) []byte {
	buf, start := beginFrame(buf, frameRemoveRequest)
	return endFrame(store.AppendRemoves(crypt.AppendToken(buf, tok), ops), start)
}

// decodeRequest decodes a request frame of the given kind: the token,
// then the op list, with read. The operation count is bounded by
// MaxBatchOps before read sees it, so an oversized batch is refused
// before its operations are allocated.
func decodeRequest[T any](body []byte, kind byte, read func(*binfmt.Reader) []T) (crypt.Token, []T, error) {
	r, err := openFrame(body, kind)
	if err != nil {
		return crypt.Token{}, nil, err
	}
	tok := crypt.ReadToken(&r.Reader, "")
	peek := r.Reader // a copy: the count is read again by read
	if n := peek.Uvarint(); peek.Err() == nil {
		if err := checkBatchSize(int(min(n, MaxBatchOps+1))); err != nil {
			return crypt.Token{}, nil, err
		}
	}
	ops := read(&r.Reader)
	if err := r.End(); err != nil {
		return crypt.Token{}, nil, err
	}
	return tok, ops, nil
}

// DecodeInsertRequest decodes a /v2/insert request frame. Payloads and
// the token's MAC alias body: the store copies what it keeps.
func DecodeInsertRequest(body []byte) (crypt.Token, []InsertOp, error) {
	return decodeRequest(body, frameInsertRequest, store.ReadInserts)
}

// DecodeRemoveRequest decodes a /v2/remove request frame. Payloads and
// the token's MAC alias body: a removal only compares them.
func DecodeRemoveRequest(body []byte) (crypt.Token, []RemoveOp, error) {
	return decodeRequest(body, frameRemoveRequest, store.ReadRemoves)
}

// ReadBody reads r to its end into buf's storage (buf[:0] onwards) and
// returns the filled slice. hint is the announced length, or negative
// when unknown; it sizes the buffer up front only up to 1 MiB, so a
// peer must actually send bytes to make the reader hold them. The
// caller bounds r.
func ReadBody(r io.Reader, buf []byte, hint int64) ([]byte, error) {
	buf = buf[:0]
	if want := min(hint, 1<<20) + 1; int64(cap(buf)) < want {
		buf = make([]byte, 0, want)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
