package client

// Admin-plane client: the snapshot-transfer surface and the one
// shard-copy procedure over it (CopyShard, CatchUpShard) that live
// migration (internal/cluster), replica resync (internal/replica) and
// `zerber migrate` drive. Both transports implement ShardAdmin — Local
// by calling the server's admin methods, HTTP via the MAC-gated
// /v3/admin endpoints (the AdminMAC field must hold
// server.AdminMAC(secret)).

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"zerberr/internal/server"
)

// ShardAdmin is the whole-shard state-transfer surface beneath live
// migration and replica resync. It is intentionally not part of
// Transport: protocol operations act on behalf of a user and carry
// tokens; admin operations act on behalf of the fleet operator and
// carry the cluster MAC.
type ShardAdmin interface {
	// ExportSnapshot dumps the shard's full state (atomic, rank-ordered).
	ExportSnapshot(ctx context.Context) (server.SnapshotExport, error)
	// ImportSnapshot replaces the shard's full state with a dump.
	ImportSnapshot(ctx context.Context, data []byte) error
	// TailSince returns the log records written after seq: framed WAL
	// bytes, empty when nothing was logged since.
	TailSince(ctx context.Context, seq uint64) ([]byte, error)
	// ApplyTail applies another shard's TailSince bytes.
	ApplyTail(ctx context.Context, tail []byte) error
	// Digest summarizes every list for differential verification.
	Digest(ctx context.Context) ([]server.ListDigest, error)
}

// CopyShard is the bulk half of moving a shard's state: src's atomic,
// rank-ordered snapshot replaces whatever dst held. Writes may keep
// landing on src meanwhile — CatchUpShard picks them up. The returned
// export carries the sequence number the copy is exact at.
func CopyShard(ctx context.Context, src, dst ShardAdmin) (server.SnapshotExport, error) {
	exp, err := src.ExportSnapshot(ctx)
	if err != nil {
		return exp, fmt.Errorf("export: %w", err)
	}
	if err := dst.ImportSnapshot(ctx, exp.Data); err != nil {
		return exp, fmt.Errorf("import: %w", err)
	}
	return exp, nil
}

// CatchUpShard is the other half: it brings dst from the state
// CopyShard shipped (exp) to src's current state and returns how many
// bytes of log tail it applied. A tailable source has the tail after
// exp.Seq fetched and applied; when it is not tailable, or either step
// fails — over HTTP the store's truncation sentinel arrives
// stringified, so every failure counts: a half-applied tail, and a
// remove dst cannot resolve because it has diverged from src — a fresh
// full copy runs instead and the count is zero. Slower, never wrong.
// The result is exact only if no write reaches src during the call;
// which barrier guarantees that (the router's per-slot lock, the
// replica set's, or none with a digest check after) is the caller's
// business, and the only thing the three callers do differently.
func CatchUpShard(ctx context.Context, src, dst ShardAdmin, exp server.SnapshotExport) (int, error) {
	if exp.Tailable {
		tail, err := src.TailSince(ctx, exp.Seq)
		if err == nil && len(tail) > 0 {
			err = dst.ApplyTail(ctx, tail)
		}
		if err == nil {
			return len(tail), nil
		}
	}
	if _, err := CopyShard(ctx, src, dst); err != nil {
		return 0, fmt.Errorf("re-copy: %w", err)
	}
	return 0, nil
}

// ExportSnapshot implements ShardAdmin.
func (l Local) ExportSnapshot(ctx context.Context) (server.SnapshotExport, error) {
	return l.S.ExportSnapshot(ctx)
}

// ImportSnapshot implements ShardAdmin.
func (l Local) ImportSnapshot(ctx context.Context, data []byte) error {
	return l.S.ImportSnapshot(ctx, data)
}

// TailSince implements ShardAdmin.
func (l Local) TailSince(ctx context.Context, seq uint64) ([]byte, error) {
	return l.S.TailSince(ctx, seq)
}

// ApplyTail implements ShardAdmin.
func (l Local) ApplyTail(ctx context.Context, tail []byte) error {
	return l.S.ApplyTail(ctx, tail)
}

// Digest implements ShardAdmin.
func (l Local) Digest(ctx context.Context) ([]server.ListDigest, error) {
	return l.S.Digest(ctx)
}

// adminDo is one admin exchange: a single attempt (migration and
// resync own their error handling; blind retries of whole-state
// transfers are never what the operator wants) carrying the admin MAC
// and an arbitrary body. A peer may answer with a whole shard, so the
// bound on its answer is the one the server puts on an import.
func (h HTTP) adminDo(ctx context.Context, method, path string, body []byte, contentType string) ([]byte, *http.Response, error) {
	return h.doOnce(ctx, call{method: method, path: path, body: body, contentType: contentType, admin: true, maxResponse: server.MaxImportBytes})
}

// octetStream labels the snapshot and tail bodies the admin plane
// moves.
const octetStream = "application/octet-stream"

// ExportSnapshot implements ShardAdmin over GET /v3/admin/snapshot.
func (h HTTP) ExportSnapshot(ctx context.Context) (server.SnapshotExport, error) {
	raw, resp, err := h.adminDo(ctx, http.MethodGet, "/v3/admin/snapshot", nil, "")
	if err != nil {
		return server.SnapshotExport{}, err
	}
	seq, err := strconv.ParseUint(resp.Header.Get("X-Zerber-Seq"), 10, 64)
	if err != nil {
		return server.SnapshotExport{}, fmt.Errorf("client: /v3/admin/snapshot: bad X-Zerber-Seq %q", resp.Header.Get("X-Zerber-Seq"))
	}
	return server.SnapshotExport{
		Data:     raw,
		Seq:      seq,
		Tailable: resp.Header.Get("X-Zerber-Tailable") == "1",
	}, nil
}

// ImportSnapshot implements ShardAdmin over PUT /v3/admin/snapshot.
func (h HTTP) ImportSnapshot(ctx context.Context, data []byte) error {
	_, _, err := h.adminDo(ctx, http.MethodPut, "/v3/admin/snapshot", data, octetStream)
	return err
}

// TailSince implements ShardAdmin over GET /v3/admin/tail.
func (h HTTP) TailSince(ctx context.Context, seq uint64) ([]byte, error) {
	tail, _, err := h.adminDo(ctx, http.MethodGet, "/v3/admin/tail?after="+strconv.FormatUint(seq, 10), nil, "")
	return tail, err
}

// ApplyTail implements ShardAdmin over POST /v3/admin/ops.
func (h HTTP) ApplyTail(ctx context.Context, tail []byte) error {
	_, _, err := h.adminDo(ctx, http.MethodPost, "/v3/admin/ops", tail, octetStream)
	return err
}

// Digest implements ShardAdmin over GET /v3/admin/digest.
func (h HTTP) Digest(ctx context.Context) ([]server.ListDigest, error) {
	raw, _, err := h.adminDo(ctx, http.MethodGet, "/v3/admin/digest", nil, "")
	if err != nil {
		return nil, err
	}
	var out server.DigestResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("client: /v3/admin/digest: decoding response: %w", err)
	}
	return out.Lists, nil
}

var _ ShardAdmin = Local{}
var _ ShardAdmin = HTTP{}
