// Command zerberd runs an untrusted Zerber+R index server over HTTP.
// It stores only sealed posting elements with their transformed
// relevance scores; users, groups and everything else arrive through
// the API (see internal/server for the endpoint list).
//
// Usage:
//
//	zerberd -addr :8021 -secret-file secret.key \
//	        -user john=0,1 -user alice=1 [-token-ttl 1h] \
//	        [-data-dir /var/lib/zerberd] [-fsync-each] \
//	        [-cache-bytes N] \
//	        [-log-level info] [-log-format text|json] [-pprof] \
//	        [-rate-limit N] [-rate-burst N] [-max-inflight N] [-admin=false]
//
// Without -data-dir the index lives in RAM and dies with the process.
// With it, every accepted insert/remove is write-ahead logged and
// periodically folded into a snapshot (internal/store), so a restarted
// daemon serves the same index — including after a crash that tears
// the final log record. A request is one log record, in the OS before
// any reader can see its effect; -fsync-each additionally holds the
// answer until the record is on disk, concurrent writers sharing
// fsyncs, so an acknowledged write survives the machine as well as the
// process.
//
// Repeated ranked-range reads are served from a version-checked
// query-result cache (internal/cache) by default; -cache-bytes sizes
// it, 0 disables it. Results are identical either way —
// any insert or remove bumps the list's version, and a window cached
// before it is never served again; it only tells a conditional read
// whether its window moved. GET /v2/stats reports hit/miss/evict
// counters.
//
// Ops plane: logs are structured (log/slog; -log-format json for
// machine-readable output), GET /metrics serves the Prometheus-format
// registry covering server, store, cache and admission families, and
// -pprof mounts net/http/pprof under /debug/pprof/. Admission control
// is off by default: -rate-limit arms a per-user token bucket
// (answering 429 + Retry-After) and -max-inflight sheds excess load
// with 503 before request bodies are decoded.
//
// The admin plane (/v3/admin: snapshot export/import, WAL tail,
// content digest — what `zerber migrate` and replica resync drive) is
// served by default; every request must present the X-Zerber-Admin
// MAC derived from the shared secret. -admin=false removes the
// endpoints entirely (they answer 404).
//
// In a real deployment user registration would come from the
// enterprise directory; the -user flags model that binding.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"zerberr/internal/cache"
	"zerberr/internal/obs"
	"zerberr/internal/server"
	"zerberr/internal/store"
)

// userFlags accumulates repeated -user NAME=G1,G2 flags.
type userFlags map[string][]int

func (u userFlags) String() string { return fmt.Sprintf("%v", map[string][]int(u)) }

func (u userFlags) Set(v string) error {
	name, groupsStr, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return fmt.Errorf("want NAME=G1,G2 — got %q", v)
	}
	var groups []int
	for _, g := range strings.Split(groupsStr, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(g))
		if err != nil {
			return fmt.Errorf("bad group %q: %v", g, err)
		}
		groups = append(groups, n)
	}
	u[name] = groups
	return nil
}

// newLogger builds the process logger from the -log-level/-log-format
// flags.
func newLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: want debug, info, warn or error", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("bad -log-format %q: want text or json", format)
}

func main() {
	var (
		addr        = flag.String("addr", ":8021", "listen address")
		secretFile  = flag.String("secret-file", "", "file holding the token-signing secret (required)")
		tokenTTL    = flag.Duration("token-ttl", time.Hour, "authentication token lifetime")
		dataDir     = flag.String("data-dir", "", "directory for the durable index (WAL + snapshots); empty keeps the index in RAM only")
		snapEvery   = flag.Int("snapshot-every", store.DefaultSnapshotEvery, "logged operations between automatic snapshots (with -data-dir)")
		fsyncEach   = flag.Bool("fsync-each", false, "acknowledge a write only once its log record is fsynced; concurrent writers share fsyncs (with -data-dir)")
		cacheBytes  = flag.Int64("cache-bytes", 64<<20, "query-result cache capacity in bytes, 0 disables it (see GET /v2/stats for hit/miss counters)")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn or error")
		logFormat   = flag.String("log-format", "text", "log format: text or json")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		rateLimit   = flag.Float64("rate-limit", 0, "per-user sustained ops/s admitted; rejections answer 429 with Retry-After (0 disables)")
		rateBurst   = flag.Float64("rate-burst", 0, "per-user burst allowance above -rate-limit (0 means max(rate, 1))")
		maxInFlight = flag.Int("max-inflight", 0, "shed requests with 503 past this many in flight (0 disables)")
		adminOn     = flag.Bool("admin", true, "serve the MAC-gated /v3/admin snapshot-transfer plane (zerber migrate, replica resync); -admin=false answers 404")
		users       = userFlags{}
	)
	flag.Var(users, "user", "register NAME=G1,G2 (repeatable)")
	flag.Parse()

	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zerberd:", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)
	fail := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	if *secretFile == "" {
		fail("-secret-file is required (the server cannot sign tokens without a secret)")
	}
	secret, err := os.ReadFile(*secretFile)
	if err != nil {
		fail("reading secret failed", "err", err)
	}
	if len(secret) < 16 {
		fail("secret too short", "bytes", len(secret), "min", 16)
	}

	// One registry serves every layer: the durable store registers its
	// WAL/snapshot families on it, the server its query/admission/cache
	// families, and GET /metrics renders the union.
	reg := obs.NewRegistry()

	backend := store.Backend(store.NewMemory())
	var durable *store.Durable
	if *dataDir != "" {
		storeLog := logger.With("component", "store")
		durable, err = store.OpenDurable(*dataDir, store.Options{
			SnapshotEvery: *snapEvery,
			FsyncEach:     *fsyncEach,
			Logf:          func(format string, args ...any) { storeLog.Info(fmt.Sprintf(format, args...)) },
			Obs:           reg,
		})
		if err != nil {
			fail("opening data dir failed", "dir", *dataDir, "err", err)
		}
		backend = durable
		nLists, _ := durable.NumLists()
		nElems, _ := durable.NumElements()
		logger.Info("durable index recovered",
			"dir", *dataDir, "lists", nLists, "elements", nElems, "seq", durable.Seq())
	}

	srv := server.NewWithBackend(secret, *tokenTTL, backend)
	srv.SetLogger(logger)
	srv.SetObs(reg) // before Handler, so endpoint families pre-register
	srv.SetAdminEnabled(*adminOn)
	if !*adminOn {
		logger.Info("admin plane disabled")
	}
	if *cacheBytes > 0 {
		srv.SetCache(cache.New(*cacheBytes))
		logger.Info("query-result cache enabled", "bytes", *cacheBytes)
	}
	if *rateLimit > 0 || *maxInFlight > 0 {
		srv.SetAdmission(&server.AdmissionConfig{
			PerUserRate: *rateLimit,
			Burst:       *rateBurst,
			MaxInFlight: *maxInFlight,
		})
		logger.Info("admission control armed",
			"rate_limit", *rateLimit, "burst", *rateBurst, "max_inflight", *maxInFlight)
	}
	for name, groups := range users {
		srv.RegisterUser(name, groups...)
		logger.Info("registered user", "user", name, "groups", fmt.Sprint(groups))
	}

	handler := srv.Handler()
	if *pprofOn {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		logger.Info("pprof mounted", "path", "/debug/pprof/")
	}

	// serveCtx is the base context of every request. Shutdown drains
	// in-flight queries gracefully; if the drain deadline passes,
	// canceling serveCtx aborts whatever is still running (the HTTP
	// handlers thread request contexts down to the store reads).
	serveCtx, cancelServe := context.WithCancel(context.Background())
	defer cancelServe()
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return serveCtx },
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		logger.Info("index server listening",
			"addr", *addr, "backend", srv.BackendName())
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		fail("serve failed", "err", err)
	case <-ctx.Done():
		stop() // a second signal kills immediately
		logger.Info("shutting down")
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		// Drain deadline passed: cancel the in-flight queries' base
		// context and close their connections instead of waiting.
		logger.Warn("http shutdown timed out, canceling in-flight requests", "err", err)
		cancelServe()
		if err := httpSrv.Close(); err != nil {
			logger.Warn("http close failed", "err", err)
		}
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Warn("serve ended with error", "err", err)
	}
	if durable != nil {
		// Fold the tail of the log into a snapshot so the next start
		// recovers instantly, then flush and close.
		if err := durable.Snapshot(); err != nil {
			logger.Warn("final snapshot failed", "err", err)
		}
	}
	if err := srv.Close(); err != nil {
		logger.Warn("closing store failed", "err", err)
	}
	logger.Info("bye")
}
