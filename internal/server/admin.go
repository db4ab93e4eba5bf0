package server

// Admin plane: the snapshot-transfer API beneath live shard migration
// and replica resync (internal/cluster, internal/replica). A peer
// holding the cluster's shared secret can export this shard's atomic
// snapshot dump, import one, fetch the log tail written after a dump's
// sequence — the WAL's own framed records — apply such a tail, and
// fetch a per-list content digest for differential verification across
// a cut-over. Snapshots and tails cross as application/octet-stream
// bodies of at most MaxImportBytes.
//
// Access control is deliberately not token-based: tokens authorize
// per-group reads and writes, while these calls move whole-index state
// between servers. They are gated by an HMAC derived from the token
// secret itself (AdminMAC) — exactly the set of parties that already
// operate the fleet — and everything they move is content the source
// server already held in its untrusted role (sealed payloads, TRS
// values, group IDs), so the admin plane widens no leakage surface.

import (
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"zerberr/internal/store"
	"zerberr/internal/zerber"
)

// SnapshotExport is one shard's exported state: the self-verifying
// snapshot dump, the WAL sequence it covers, and whether the shard can
// serve TailSince for sequences at or beyond Seq (a durable backend
// can; a RAM-only one cannot, so its export is only consistent if the
// caller paused writes around it).
type SnapshotExport struct {
	Data     []byte
	Seq      uint64
	Tailable bool
}

// ListDigest summarizes one list for differential verification: its
// mutation version, element count and the hex Merkle content root
// over the rank-ordered (group, trs, sealed) content (the same
// commitment window proofs verify against).
type ListDigest struct {
	List     zerber.ListID `json:"list"`
	Version  uint64        `json:"version"`
	Elements int           `json:"elements"`
	Sum      string        `json:"sum"`
}

// DigestResponse is the /v3/admin/digest payload.
type DigestResponse struct {
	Lists []ListDigest `json:"lists"`
}

// MaxImportBytes bounds an imported snapshot body and an applied tail;
// exported because the admin client bounds what a peer may answer an
// export or a tail fetch with by the same figure.
const MaxImportBytes = 1 << 30

// AdminMAC derives the admin-plane credential from the token-signing
// secret: hex(HMAC-SHA256(secret, "zerber-admin-v1")). Shards of one
// cluster share the secret, so they (and the operator's tooling) can
// derive it; nobody else can. Sent as the X-Zerber-Admin header.
func AdminMAC(secret []byte) string {
	mac := hmac.New(sha256.New, secret)
	mac.Write([]byte("zerber-admin-v1"))
	return hex.EncodeToString(mac.Sum(nil))
}

// SetAdminEnabled toggles the admin endpoints (default enabled). A
// disabled admin plane answers 404, indistinguishable from a build
// that never mounted it.
func (s *Server) SetAdminEnabled(on bool) { s.adminOff.Store(!on) }

// ExportSnapshot returns the shard's full state as an atomic snapshot
// dump. Tailable reports whether TailSince can later serve the
// mutations logged after Seq.
func (s *Server) ExportSnapshot(ctx context.Context) (SnapshotExport, error) {
	if err := ctx.Err(); err != nil {
		return SnapshotExport{}, err
	}
	data, seq, err := s.backend.ExportSnapshot()
	if err != nil {
		return SnapshotExport{}, fmt.Errorf("server: exporting snapshot: %w", err)
	}
	// Capability probe: a log-keeping backend answers a beyond-head
	// tail with an empty slice in O(1); a log-less one with ErrNoTail.
	_, terr := s.backend.TailSince(math.MaxUint64)
	if m := s.met.Load(); m != nil {
		m.snapExports.Inc()
	}
	return SnapshotExport{Data: data, Seq: seq, Tailable: terr == nil}, nil
}

// ImportSnapshot replaces the shard's entire contents with a dump
// produced by ExportSnapshot.
func (s *Server) ImportSnapshot(ctx context.Context, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(data) == 0 {
		return fmt.Errorf("%w: empty snapshot", ErrBadRequest)
	}
	if err := s.backend.ImportSnapshot(data); err != nil {
		if errors.Is(err, store.ErrBadSnapshot) {
			return fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		return fmt.Errorf("server: importing snapshot: %w", err)
	}
	if m := s.met.Load(); m != nil {
		m.snapImports.Inc()
	}
	return nil
}

// TailSince returns the log records written after seq, as framed WAL
// bytes (see store.Backend.TailSince for the ErrNoTail /
// ErrTailTruncated contract, surfaced here as ErrBadRequest-wrapped
// errors so remote callers can tell them from transport faults).
func (s *Server) TailSince(ctx context.Context, seq uint64) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tail, err := s.backend.TailSince(seq)
	if err != nil {
		if errors.Is(err, store.ErrNoTail) || errors.Is(err, store.ErrTailTruncated) {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		return nil, fmt.Errorf("server: reading tail: %w", err)
	}
	if m := s.met.Load(); m != nil {
		m.tailBytes.Add(uint64(len(tail)))
	}
	return tail, nil
}

// ApplyTail applies a tail another shard's TailSince returned
// (store.ApplyTail): versions advance here exactly as they did there,
// and each run of consecutive inserts or removes is one backend batch —
// on a durable shard one WAL record (and one fsync) per run, which is
// what keeps replica resync and migration catch-up cheap. A tail that
// does not decode changes nothing; a remove this shard cannot resolve
// fails the apply after the runs before it — the shard has diverged,
// and the caller re-copies it (migration never flips a route without a
// clean digest match). Both are ErrBadRequest.
func (s *Server) ApplyTail(ctx context.Context, tail []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ops, err := store.ApplyTail(s.backend, tail)
	if m := s.met.Load(); m != nil {
		m.opsApplied.Add(uint64(ops))
	}
	if errors.Is(err, store.ErrBadWAL) || errors.Is(err, store.ErrNotFound) || errors.Is(err, store.ErrUnknownList) {
		return fmt.Errorf("%w: applying tail: %v", ErrBadRequest, err)
	}
	return err
}

// Digest summarizes every list for differential verification. Sum is
// the hex Merkle content root (internal/proof): version-free, equal
// iff two lists hold identical elements in identical rank order, and
// the same bucket hashing window proofs verify against — so a migration
// cut-over check is a cryptographic identity, not a checksum. The
// result is only a consistent whole-shard cut while writes are paused
// (the migration barrier, the replica resync lock); individual list
// entries are always internally consistent.
func (s *Server) Digest(ctx context.Context) ([]ListDigest, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	lists, err := s.backend.Lists()
	if err != nil {
		return nil, fmt.Errorf("server: listing: %w", err)
	}
	out := make([]ListDigest, 0, len(lists))
	for _, id := range lists {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cm, err := s.backend.Commitment(id)
		if err != nil {
			return nil, fmt.Errorf("server: digesting list: %w", err)
		}
		out = append(out, ListDigest{
			List:     id,
			Version:  cm.Version,
			Elements: cm.Elements,
			Sum:      cm.Content.String(),
		})
	}
	return out, nil
}

// adminAuthed enforces the MAC gate (and the enable toggle) for one
// admin request.
func (s *Server) adminAuthed(w http.ResponseWriter, r *http.Request) bool {
	if s.adminOff.Load() {
		http.NotFound(w, r)
		return false
	}
	got := r.Header.Get("X-Zerber-Admin")
	want := AdminMAC(s.secret)
	if subtle.ConstantTimeCompare([]byte(got), []byte(want)) != 1 {
		writeErr(w, r, fmt.Errorf("%w: missing or wrong admin MAC", ErrAuth))
		return false
	}
	return true
}

// registerAdmin mounts the admin-plane endpoints (Handler calls it).
func (s *Server) registerAdmin(handle func(method, path string, h http.HandlerFunc)) {
	handle("GET", "/v3/admin/snapshot", func(w http.ResponseWriter, r *http.Request) {
		if !s.adminAuthed(w, r) {
			return
		}
		exp, err := s.ExportSnapshot(r.Context())
		if err != nil {
			writeErr(w, r, err)
			return
		}
		w.Header().Set("X-Zerber-Seq", strconv.FormatUint(exp.Seq, 10))
		tailable := "0"
		if exp.Tailable {
			tailable = "1"
		}
		w.Header().Set("X-Zerber-Tailable", tailable)
		writeBytes(w, exp.Data)
	})
	handle("PUT", "/v3/admin/snapshot", func(w http.ResponseWriter, r *http.Request) {
		if !s.adminAuthed(w, r) {
			return
		}
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxImportBytes))
		if err != nil {
			writeErr(w, r, fmt.Errorf("%w: reading snapshot body: %v", ErrBadRequest, err))
			return
		}
		if err := s.ImportSnapshot(r.Context(), data); err != nil {
			writeErr(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, struct{}{})
	})
	handle("GET", "/v3/admin/tail", func(w http.ResponseWriter, r *http.Request) {
		if !s.adminAuthed(w, r) {
			return
		}
		after, err := strconv.ParseUint(r.URL.Query().Get("after"), 10, 64)
		if err != nil {
			writeErr(w, r, fmt.Errorf("%w: bad after parameter: %v", ErrBadRequest, err))
			return
		}
		tail, err := s.TailSince(r.Context(), after)
		if err != nil {
			writeErr(w, r, err)
			return
		}
		writeBytes(w, tail)
	})
	handle("POST", "/v3/admin/ops", func(w http.ResponseWriter, r *http.Request) {
		if !s.adminAuthed(w, r) {
			return
		}
		tail, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxImportBytes))
		if err != nil {
			err = fmt.Errorf("%w: reading tail body: %v", ErrBadRequest, err)
		} else {
			err = s.ApplyTail(r.Context(), tail)
		}
		if err != nil {
			writeErr(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, struct{}{})
	})
	handle("GET", "/v3/admin/digest", func(w http.ResponseWriter, r *http.Request) {
		if !s.adminAuthed(w, r) {
			return
		}
		lists, err := s.Digest(r.Context())
		if err != nil {
			writeErr(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, DigestResponse{Lists: lists})
	})
}

// writeBytes answers 200 with an application/octet-stream body.
func writeBytes(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}
