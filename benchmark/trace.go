package main

// Span recording for the traced run. Nothing in zerberr/internal knows
// about spans: every span is opened and closed here, by wrappers the
// fixture places around public boundaries — client.Transport (above
// the router, above each replica set, above each client.HTTP),
// http.RoundTripper and http.Handler (to carry the parent across the
// wire), store.Backend and crypt.ElementCodec. An untraced run installs
// none of them.
//
// A span learns its parent from the context where one flows
// (Transport calls, HTTP requests). The two boundaries without a
// context borrow it: a codec call belongs to the operation its client
// is running (one sequential client in a traced run), a backend call
// to the request its server is handling.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"zerberr/internal/client"
	"zerberr/internal/crypt"
	"zerberr/internal/server"
	"zerberr/internal/store"
	"zerberr/internal/zerber"
)

// ref names the span a new span will hang under, and the root both
// belong to. The zero ref means "not traced": wrappers pass the call
// through untouched.
type ref struct{ id, root uint32 }

func (r ref) pack() uint64   { return uint64(r.id)<<32 | uint64(r.root) }
func unpack(v uint64) ref    { return ref{uint32(v >> 32), uint32(v)} }
func (r ref) header() string { return strconv.FormatUint(r.pack(), 16) }

type refKey struct{}

func refFrom(ctx context.Context) ref {
	r, _ := ctx.Value(refKey{}).(ref)
	return r
}

// spanHeader carries the calling span across HTTP.
const spanHeader = "X-Benchmark-Span"

// recorder keeps finished spans in memory until the run ends.
type recorder struct {
	epoch  time.Time
	nextID atomic.Uint32
	// unfinished counts spans opened and not yet closed. The loser of a
	// hedged read outlives the search that raced it, so spans can still
	// be open when the last operation has returned.
	unfinished atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// open starts a span under parent (the zero ref starts a root) and
// returns the ref its children hang under plus the function that
// closes it.
func (r *recorder) open(parent ref, k kind) (ref, func()) {
	id := r.nextID.Add(1)
	root := parent.root
	if parent.id == 0 {
		root = id
	}
	start := r.now()
	r.unfinished.Add(1)
	return ref{id, root}, func() {
		s := span{ID: id, Parent: parent.id, Root: root, Kind: k, Start: start, End: r.now()}
		r.mu.Lock()
		r.spans = append(r.spans, s)
		r.mu.Unlock()
		r.unfinished.Add(-1)
	}
}

// settled waits until every opened span has been recorded and returns
// the spans. Children close before their parents except across the
// wire, where either side of a cancelled request may finish first; read
// any earlier, the record can hold a span without its parent.
func (r *recorder) settled(ctx context.Context) ([]span, error) {
	for r.unfinished.Load() != 0 {
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("%d spans still open: %w", r.unfinished.Load(), context.Cause(ctx))
		case <-time.After(time.Millisecond):
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans, nil
}

// openCtx is open for boundaries that carry a context. When the
// context is not traced it records nothing and hands the context back.
func (r *recorder) openCtx(ctx context.Context, k kind) (context.Context, func()) {
	parent := refFrom(ctx)
	if parent.id == 0 {
		return ctx, untraced
	}
	me, done := r.open(parent, k)
	return context.WithValue(ctx, refKey{}, me), done
}

func untraced() {}

// writeTo dumps the spans as one JSON array, one span per line.
func (r *recorder) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	sep := "[\n"
	r.mu.Lock()
	for _, s := range r.spans {
		fmt.Fprintf(w, "%s{\"id\":%d,\"parent\":%d,\"root\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}",
			sep, s.ID, s.Parent, s.Root, s.Kind.String(), s.Start, s.End)
		sep = ",\n"
	}
	r.mu.Unlock()
	if sep == "[\n" { // nothing recorded
		w.WriteString("[")
	}
	w.WriteString("\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedTransport opens one span of its kind around every protocol
// call into next. calls counts batched reads, traced or not, so ratios
// against the wrapped layer's own counters (hedges per read) have
// their base.
type tracedTransport struct {
	next  client.Transport
	rec   *recorder
	kind  kind
	calls atomic.Uint64
}

func (t *tracedTransport) Login(ctx context.Context, user string) ([]crypt.Token, error) {
	return t.next.Login(ctx, user)
}

func (t *tracedTransport) Insert(ctx context.Context, tok crypt.Token, list zerber.ListID, el server.StoredElement) error {
	ctx, done := t.rec.openCtx(ctx, t.kind)
	defer done()
	return t.next.Insert(ctx, tok, list, el)
}

func (t *tracedTransport) Query(ctx context.Context, toks []crypt.Token, list zerber.ListID, offset, count int) (server.QueryResponse, int, error) {
	ctx, done := t.rec.openCtx(ctx, t.kind)
	defer done()
	return t.next.Query(ctx, toks, list, offset, count)
}

func (t *tracedTransport) Remove(ctx context.Context, tok crypt.Token, list zerber.ListID, sealed []byte) error {
	ctx, done := t.rec.openCtx(ctx, t.kind)
	defer done()
	return t.next.Remove(ctx, tok, list, sealed)
}

func (t *tracedTransport) QueryBatch(ctx context.Context, toks []crypt.Token, queries []server.ListQuery) (client.BatchQueryResult, error) {
	t.calls.Add(1)
	ctx, done := t.rec.openCtx(ctx, t.kind)
	defer done()
	return t.next.QueryBatch(ctx, toks, queries)
}

func (t *tracedTransport) InsertBatch(ctx context.Context, tok crypt.Token, ops []server.InsertOp) error {
	ctx, done := t.rec.openCtx(ctx, t.kind)
	defer done()
	return t.next.InsertBatch(ctx, tok, ops)
}

func (t *tracedTransport) RemoveBatch(ctx context.Context, tok crypt.Token, ops []server.RemoveOp) error {
	ctx, done := t.rec.openCtx(ctx, t.kind)
	defer done()
	return t.next.RemoveBatch(ctx, tok, ops)
}

// tracedRoundTripper stamps the calling span onto each outgoing
// request and counts what a traced request puts on the wire. Every
// HTTP attempt passes through here, so attempts minus transport spans
// is the number of retries client.HTTP made.
type tracedRoundTripper struct {
	next http.RoundTripper

	attempts, requestBytes, responseBytes atomic.Uint64
}

func (t *tracedRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	parent := refFrom(req.Context())
	if parent.id == 0 {
		return t.next.RoundTrip(req)
	}
	req = req.Clone(req.Context()) // a RoundTripper must not modify the caller's request
	req.Header.Set(spanHeader, parent.header())
	t.attempts.Add(1)
	if req.ContentLength > 0 {
		t.requestBytes.Add(uint64(req.ContentLength))
	}
	resp, err := t.next.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.responseBytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Uint64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(uint64(n))
	return n, err
}

// serverTrace is the tracing state of one server: the handler wrapper
// publishes the requests in flight, the backend wrapper hangs its
// spans under them.
type serverTrace struct {
	rec *recorder

	mu       sync.Mutex
	inFlight []ref

	requests, errors          atomic.Uint64
	queryCalls, queryElements atomic.Uint64
	// walBytes is how far traced writes grew the write-ahead log, and
	// walElements how many elements they wrote.
	walPath               string
	walBytes, walElements atomic.Uint64
}

// current is the request a backend call belongs to: the most recent
// traced one in flight. A traced run has one sequential client, so
// there is one candidate except while a hedge's loser is still
// draining, and a loser's spans fall outside its parent's interval
// and are clipped away.
func (t *serverTrace) current() ref {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.inFlight) == 0 {
		return ref{}
	}
	return t.inFlight[len(t.inFlight)-1]
}

func (t *serverTrace) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		v, err := strconv.ParseUint(r.Header.Get(spanHeader), 16, 64)
		if err != nil || v == 0 {
			next.ServeHTTP(w, r)
			return
		}
		me, done := t.rec.open(unpack(v), kServer)
		t.mu.Lock()
		t.inFlight = append(t.inFlight, me)
		t.mu.Unlock()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		t.mu.Lock()
		for i, f := range t.inFlight {
			if f == me {
				t.inFlight = append(t.inFlight[:i], t.inFlight[i+1:]...)
				break
			}
		}
		t.mu.Unlock()
		done()
		t.requests.Add(1)
		if sw.status >= 400 {
			t.errors.Add(1)
		}
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// tracedBackend times the calls srv.Handler() makes into the store.
// Everything else (Version, Len, the admin plane) passes through the
// embedded backend and counts as server time.
type tracedBackend struct {
	store.Backend
	t *serverTrace
}

func (b tracedBackend) span(k kind) func() {
	parent := b.t.current()
	if parent.id == 0 {
		return untraced
	}
	_, done := b.t.rec.open(parent, k)
	return done
}

func (b tracedBackend) Query(list zerber.ListID, allowed map[int]bool, offset, count int) (store.QueryResult, error) {
	defer b.span(kStoreQuery)()
	res, err := b.Backend.Query(list, allowed, offset, count)
	b.t.queryCalls.Add(1)
	b.t.queryElements.Add(uint64(len(res.Elements)))
	return res, err
}

func (b tracedBackend) QueryProved(list zerber.ListID, allowed map[int]bool, offset, count int) (store.QueryResult, error) {
	defer b.span(kStoreQueryProved)()
	res, err := b.Backend.QueryProved(list, allowed, offset, count)
	b.t.queryCalls.Add(1)
	b.t.queryElements.Add(uint64(len(res.Elements)))
	return res, err
}

// logged runs one traced write under a span of kind k and, outside the
// span, reads how far it grew the write-ahead log. One sequential
// client means one write at a time per store; a write that trips a
// snapshot shrinks the log and is left out.
func (b tracedBackend) logged(k kind, elements int, write func() error) error {
	parent := b.t.current()
	if parent.id == 0 {
		return write()
	}
	before := fileSize(b.t.walPath)
	_, done := b.t.rec.open(parent, k)
	err := write()
	done()
	if after := fileSize(b.t.walPath); err == nil && after >= before {
		b.t.walBytes.Add(uint64(after - before))
		b.t.walElements.Add(uint64(elements))
	}
	return err
}

func fileSize(path string) int64 {
	info, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return info.Size()
}

func (b tracedBackend) Insert(list zerber.ListID, el store.Element) error {
	return b.logged(kStoreInsert, 1, func() error { return b.Backend.Insert(list, el) })
}

func (b tracedBackend) InsertBatch(ops []store.BatchInsert) error {
	return b.logged(kStoreInsert, len(ops), func() error { return b.Backend.InsertBatch(ops) })
}

func (b tracedBackend) Remove(list zerber.ListID, sealed []byte, allow func(group int) bool) error {
	return b.logged(kStoreRemove, 1, func() error { return b.Backend.Remove(list, sealed, allow) })
}

// View is how a batched remove finds its victims before removing
// them; on the request path nothing else calls it.
func (b tracedBackend) View(list zerber.ListID, fn func(elems []store.Element)) error {
	defer b.span(kStoreRemove)()
	return b.Backend.View(list, fn)
}

// tracedCodec times Seal and Open under the operation its client is
// running; the driver sets cur before each traced operation and
// clears it after.
type tracedCodec struct {
	crypt.ElementCodec
	rec *recorder
	cur atomic.Uint64 // packed ref; 0 = not traced
}

func (c *tracedCodec) Seal(el crypt.Element, key crypt.GroupKey) ([]byte, error) {
	if parent := unpack(c.cur.Load()); parent.id != 0 {
		_, done := c.rec.open(parent, kCryptSeal)
		defer done()
	}
	return c.ElementCodec.Seal(el, key)
}

func (c *tracedCodec) Open(ct []byte, key crypt.GroupKey) (crypt.Element, error) {
	if parent := unpack(c.cur.Load()); parent.id != 0 {
		_, done := c.rec.open(parent, kCryptOpen)
		defer done()
	}
	return c.ElementCodec.Open(ct, key)
}
