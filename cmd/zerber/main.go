// Command zerber is the client-side CLI: it runs the offline
// initialization over a directory of text documents (RSTF training +
// merge plan), indexes documents into a zerberd server, and executes
// confidential top-k queries.
//
// Usage:
//
//	zerber init    -docs ./corpus -out ./artifacts -r 32 [-pass phrase]
//	zerber index   -docs ./corpus -artifacts ./artifacts -server http://host:8021 -user john -pass phrase
//	zerber query   -artifacts ./artifacts -server http://host:8021 -user john -pass phrase -k 10 term
//	zerber status  -server http://shard0a+http://shard0b,http://shard1
//	zerber verify  -server http://host:8021 -user john -list 3 -count 100
//	zerber migrate -src http://old:8021 -dst http://new:8021 -secret-file secret.key
//	zerber wire    -server http://host:8021 -user john {insert|query|remove} [flags]
//
// index uploads each document's posting elements as one batched
// /v2/insert; query drives all terms' follow-up loops over batched
// /v2/query round-trips and reports both the round-trips and the list
// requests they carried, the paper's request count (-stream prints the
// provisional top-k after every round, -proof verifies a Merkle window
// proof for every round);
// status prints the server's /v2/stats view — shards are
// comma-separated and replica members of one shard are joined with
// "+" (primary first), mirroring how a replica.Set is wired; -roots
// adds each list's committed Merkle root, in full. verify audits one
// ranked window of a list: it requests a window proof, checks
// inclusion, adjacency and completeness against the root that proof
// advertises, and prints that root in full, for comparison with a
// published one; it needs only a login (no group keys — proofs bind
// ciphertext, not plaintext). migrate
// moves a whole index between zerberd processes over the MAC-gated
// admin plane (snapshot, then the log records written since — the WAL
// tail, as the source's own framed bytes — then digests), reports the
// tail's size in bytes, and differentially verifies the copy before
// reporting success; quiesce the source (or
// use cluster.Router.Migrate in process) for a fully atomic move. wire
// is curl for the endpoints whose bodies are binary frames: it logs in,
// sends one raw insert, query or remove, and prints the answer as JSON
// (sealed payloads in base64), for scripts and smoke tests.
// Every command runs under a signal-bound context: ^C cancels
// in-flight requests instead of abandoning them server-side.
//
// Documents are .txt files; the immediate subdirectory of -docs names
// the collaboration group (docs/<group>/<file>.txt; files directly in
// -docs form group 0). For simplicity every group derives its key from
// the same passphrase plus the group number.
package main

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"zerberr/internal/client"
	"zerberr/internal/cluster"
	"zerberr/internal/corpus"
	"zerberr/internal/crypt"
	"zerberr/internal/proof"
	"zerberr/internal/rank"
	"zerberr/internal/rstf"
	"zerberr/internal/server"
	"zerberr/internal/zerber"
)

// logger is the CLI's structured logger; diagnostics go to stderr,
// command output to stdout.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

// fatal logs the failure and exits non-zero.
func fatal(msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch os.Args[1] {
	case "init":
		cmdInit(os.Args[2:])
	case "index":
		cmdIndex(ctx, os.Args[2:])
	case "query":
		cmdQuery(ctx, os.Args[2:])
	case "status":
		cmdStatus(ctx, os.Args[2:])
	case "verify":
		cmdVerify(ctx, os.Args[2:])
	case "migrate":
		cmdMigrate(ctx, os.Args[2:])
	case "wire":
		cmdWire(ctx, os.Args[2:], os.Stdout)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: zerber {init|index|query|status|verify|migrate|wire} [flags]   (run a subcommand with -h for details)")
	os.Exit(2)
}

// loadDocs reads the corpus directory: group subdirectories holding
// .txt files.
func loadDocs(dir string) ([]corpus.RawDoc, []string, error) {
	var raws []corpus.RawDoc
	var names []string
	groups := map[string]int{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".txt") {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		groupName := "."
		if parts := strings.Split(rel, string(filepath.Separator)); len(parts) > 1 {
			groupName = parts[0]
		}
		if _, ok := groups[groupName]; !ok {
			groups[groupName] = len(groups)
		}
		text, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		raws = append(raws, corpus.RawDoc{Text: string(text), Group: groups[groupName]})
		names = append(names, rel)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if len(raws) == 0 {
		return nil, nil, fmt.Errorf("no .txt documents under %s", dir)
	}
	return raws, names, nil
}

func cmdInit(args []string) {
	fs := flag.NewFlagSet("init", flag.ExitOnError)
	docs := fs.String("docs", "", "directory of training documents (required)")
	out := fs.String("out", "artifacts", "output directory for plan + RSTF store")
	r := fs.Float64("r", 32, "confidentiality parameter r")
	seed := fs.Uint64("seed", 1, "deterministic seed")
	_ = fs.Parse(args)
	if *docs == "" {
		fatal("init: -docs is required")
	}
	raws, _, err := loadDocs(*docs)
	if err != nil {
		fatal("loading documents failed", "err", err)
	}
	c := corpus.Ingest(raws, nil)
	logger.Info("ingested corpus", "docs", c.NumDocs(), "terms", c.DistinctTerms(), "groups", c.Groups)

	split := corpus.NewSplit(c, 1.0, 0.33, *seed)
	store := rstf.TrainStore(
		corpus.TrainingScores(c, split.Train),
		corpus.TrainingScores(c, split.Control),
		rstf.StoreConfig{FallbackSeed: *seed},
	)
	plan, err := zerber.BFM(zerber.FromCorpus(c), *r)
	if err != nil {
		fatal("building merge plan failed", "err", err)
	}
	if err := plan.Verify(); err != nil {
		fatal("merge plan verification failed", "err", err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal("creating output directory failed", "err", err)
	}
	writeArtifact(filepath.Join(*out, "plan.bin"), plan.WriteTo)
	writeArtifact(filepath.Join(*out, "rstf.bin"), store.WriteTo)
	writeVocab(filepath.Join(*out, "vocab.txt"), c)
	logger.Info("initialized", "lists", plan.NumLists(), "r", *r, "trained_terms", store.Len(), "out", *out)
}

// writeArtifact writes one artifact readable by its owner only: the
// plan, the RSTF store and the vocabulary are client-side secrets, kept
// with the key passphrase and never sent to the server. A file left by
// an earlier init is narrowed to 0600 too.
func writeArtifact(path string, write func(w io.Writer) (int64, error)) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err == nil {
		err = f.Chmod(0o600)
	}
	if err != nil {
		fatal("creating artifact failed", "path", path, "err", err)
	}
	if _, err := write(f); err != nil {
		fatal("writing artifact failed", "path", path, "err", err)
	}
	if err := f.Close(); err != nil {
		fatal("closing artifact failed", "path", path, "err", err)
	}
}

// writeVocab persists the term dictionary (name per line, ID = line
// number) so later runs resolve query terms identically.
func writeVocab(path string, c *corpus.Corpus) {
	var b strings.Builder
	for t := corpus.TermID(0); int(t) < c.VocabSize; t++ {
		b.WriteString(c.Term(t))
		b.WriteByte('\n')
	}
	writeArtifact(path, strings.NewReader(b.String()).WriteTo)
}

// artifacts bundles what index/query need.
type artifacts struct {
	plan  *zerber.MergePlan
	store *rstf.Store
	vocab map[string]corpus.TermID
}

func loadArtifacts(dir string) artifacts {
	pf, err := os.Open(filepath.Join(dir, "plan.bin"))
	if err != nil {
		fatal("opening merge plan failed", "err", err)
	}
	defer pf.Close()
	plan, err := zerber.ReadPlan(pf)
	if err != nil {
		fatal("reading merge plan failed", "err", err)
	}
	sf, err := os.Open(filepath.Join(dir, "rstf.bin"))
	if err != nil {
		fatal("opening RSTF store failed", "err", err)
	}
	defer sf.Close()
	store, err := rstf.ReadStore(sf)
	if err != nil {
		fatal("reading RSTF store failed", "err", err)
	}
	vb, err := os.ReadFile(filepath.Join(dir, "vocab.txt"))
	if err != nil {
		fatal("reading vocabulary failed", "err", err)
	}
	vocab := map[string]corpus.TermID{}
	for i, line := range strings.Split(strings.TrimRight(string(vb), "\n"), "\n") {
		vocab[line] = corpus.TermID(i)
	}
	return artifacts{plan: plan, store: store, vocab: vocab}
}

// groupPassphrase derives the per-group key passphrase from the user
// passphrase.
func groupPassphrase(pass string, g int) string {
	return fmt.Sprintf("%s/group%d", pass, g)
}

func newClient(ctx context.Context, art artifacts, serverURL, user, pass string, groups int) *client.Client {
	keys := map[int]crypt.GroupKey{}
	for g := 0; g < groups; g++ {
		keys[g] = crypt.KeyFromPassphrase(groupPassphrase(pass, g))
	}
	// The CLI transport is self-healing: transient 429/503/5xx blips
	// and dropped connections are retried with backoff (see
	// internal/client/retry.go) instead of failing the command.
	cl, err := client.New(client.HTTP{BaseURL: serverURL, Retry: client.DefaultRetryPolicy()}, client.Config{
		Plan:  art.plan,
		Store: art.store,
		Keys:  keys,
	})
	if err != nil {
		fatal("building client failed", "err", err)
	}
	if err := cl.Login(ctx, user); err != nil {
		fatal("login failed", "user", user, "err", err)
	}
	return cl
}

func cmdIndex(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("index", flag.ExitOnError)
	docs := fs.String("docs", "", "directory of documents to index (required)")
	artDir := fs.String("artifacts", "artifacts", "artifact directory from 'zerber init'")
	serverURL := fs.String("server", "http://localhost:8021", "index server URL")
	user := fs.String("user", "", "user name (required)")
	pass := fs.String("pass", "", "group key passphrase (required)")
	groups := fs.Int("groups", 16, "number of group keys to derive")
	_ = fs.Parse(args)
	if *docs == "" || *user == "" || *pass == "" {
		fatal("index: -docs, -user and -pass are required")
	}
	raws, names, err := loadDocs(*docs)
	if err != nil {
		fatal("loading documents failed", "err", err)
	}
	c := corpus.Ingest(raws, nil)
	art := loadArtifacts(*artDir)
	cl := newClient(ctx, art, *serverURL, *user, *pass, *groups)
	for i, d := range c.Docs {
		if err := cl.IndexDocument(ctx, d, d.Group); err != nil {
			fatal("indexing document failed", "doc", names[i], "err", err)
		}
	}
	logger.Info("indexed documents", "count", c.NumDocs())
}

func cmdQuery(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	artDir := fs.String("artifacts", "artifacts", "artifact directory from 'zerber init'")
	serverURL := fs.String("server", "http://localhost:8021", "index server URL")
	user := fs.String("user", "", "user name (required)")
	pass := fs.String("pass", "", "group key passphrase (required)")
	groups := fs.Int("groups", 16, "number of group keys to derive")
	k := fs.Int("k", 10, "number of results")
	stream := fs.Bool("stream", false, "print the provisional top-k after every protocol round")
	proved := fs.Bool("proof", false, "verify a Merkle window proof for every protocol round")
	timeout := fs.Duration("timeout", 0, "overall query deadline (0 = none)")
	_ = fs.Parse(args)
	terms := fs.Args()
	if *user == "" || *pass == "" || len(terms) == 0 {
		fatal("query: -user, -pass and at least one query term are required")
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	art := loadArtifacts(*artDir)
	cl := newClient(ctx, art, *serverURL, *user, *pass, *groups)
	var ids []corpus.TermID
	for _, term := range terms {
		id, ok := art.vocab[strings.ToLower(term)]
		if !ok {
			logger.Warn("term not in vocabulary, skipping", "term", term)
			continue
		}
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		fatal("no known query terms")
	}
	var opts []client.SearchOption
	if *proved {
		opts = append(opts, client.WithProof())
	}
	var results []rank.Result
	var stats client.QueryStats
	if *stream {
		round := 0
		for snap, err := range cl.SearchStream(ctx, ids, *k, opts...) {
			if err != nil {
				fatal("search failed", "err", err)
			}
			round++
			top := snap.Results
			if len(top) > 3 && !snap.Final {
				top = top[:3]
			}
			fmt.Printf("round %d (%d elements so far):\n", round, snap.Stats.Elements)
			for i, r := range top {
				fmt.Printf("   %2d. doc %-8d score %.6f\n", i+1, r.Doc, r.Score)
			}
			results, stats = snap.Results, snap.Stats
		}
	} else {
		var err error
		results, stats, err = cl.Search(ctx, ids, *k, opts...)
		if err != nil {
			fatal("search failed", "err", err)
		}
	}
	sort.SliceStable(results, func(i, j int) bool { return results[i].Score > results[j].Score })
	for rank, r := range results {
		fmt.Printf("%2d. doc %-8d score %.6f\n", rank+1, r.Doc, r.Score)
	}
	fmt.Printf("(%d round-trips carrying %d list requests, %d posting elements, %d bytes over the wire)\n",
		stats.Rounds, stats.Requests, stats.Elements, stats.Bytes)
}

func cmdStatus(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	serverURL := fs.String("server", "http://localhost:8021", "index server URL; comma-separate shards, join one shard's replica members with '+' (primary first)")
	lists := fs.Bool("lists", false, "also print per-list element counts (single server only)")
	roots := fs.Bool("roots", false, "also print each list's committed Merkle root (single server only; implies -lists)")
	_ = fs.Parse(args)
	if *roots {
		*lists = true
	}

	shards := strings.Split(*serverURL, ",")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "SHARD\tROLE\tBACKEND\tLISTS\tELEMENTS\tQ-P50\tQ-P95\tQ-P99\tWAL-FSYNC-P99\tLIMITED\tSHED\tHEALTH")
	var single *client.HTTP
	nMembers := 0
	for i, shard := range shards {
		for m, u := range strings.Split(shard, "+") {
			nMembers++
			role := "primary"
			if m > 0 {
				role = fmt.Sprintf("replica-%d", m)
			}
			u = strings.TrimSpace(u)
			h := client.HTTP{BaseURL: u, Retry: client.DefaultRetryPolicy()}
			st, err := h.Stats(ctx)
			if err != nil {
				fmt.Fprintf(w, "%d\t%s\t-\t-\t-\t-\t-\t-\t-\t-\t-\tunreachable: %v\n", i, role, err)
				continue
			}
			single = &h
			p50, p95, p99, fsync, limited, shed := "-", "-", "-", "-", "-", "-"
			if o := st.Ops; o != nil {
				p50, p95, p99 = fmtLatency(o.QueryP50), fmtLatency(o.QueryP95), fmtLatency(o.QueryP99)
				fsync = fmtLatency(o.WALFsyncP99)
				limited = fmt.Sprint(o.RateLimited)
				shed = fmt.Sprint(o.Shed)
			}
			fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%d\t%s\t%s\t%s\t%s\t%s\t%s\tok\n",
				i, role, st.Backend, st.Lists, st.Elements, p50, p95, p99, fsync, limited, shed)
		}
	}
	w.Flush()
	if nMembers != 1 {
		single = nil
	}
	if single != nil && *lists {
		stats := single.Stats
		if *roots {
			stats = single.StatsRoots
		}
		st, err := stats(ctx)
		if err != nil {
			fatal("fetching stats failed", "err", err)
		}
		for _, ls := range st.PerList {
			if *roots {
				fmt.Printf("  list %-6d %8d elements  v%-6d root %s\n", ls.List, ls.Elements, ls.Version, ls.Root)
			} else {
				fmt.Printf("  list %-6d %d elements\n", ls.List, ls.Elements)
			}
		}
	}
}

// cmdVerify audits one ranked window of a merged list: it requests a
// Merkle window proof, verifies inclusion, adjacency and completeness
// against the list root the proof advertises, and prints that root in
// full. Whether the root is the one the operator published is the
// reader's comparison; the command takes no root. Only a login is
// needed — proofs bind the server-visible fields (TRS, ciphertext,
// group), so the auditor holds no group keys and decrypts nothing.
func cmdVerify(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	serverURL := fs.String("server", "http://localhost:8021", "index server URL")
	user := fs.String("user", "", "user name (required; group tokens bound the audited view)")
	list := fs.Int("list", -1, "merged list ID to audit (required)")
	offset := fs.Int("offset", 0, "window start within the ranked view")
	count := fs.Int("count", 1000, "window size to audit")
	_ = fs.Parse(args)
	if *user == "" || *list < 0 {
		fatal("verify: -user and -list are required")
	}
	h := client.HTTP{BaseURL: strings.TrimSpace(*serverURL), Retry: client.DefaultRetryPolicy()}
	toks, err := h.Login(ctx, *user)
	if err != nil {
		fatal("login failed", "user", *user, "err", err)
	}
	res, err := h.QueryBatch(ctx, toks, []server.ListQuery{{
		List: zerber.ListID(*list), Offset: *offset, Count: *count, Proof: true,
	}})
	if err != nil {
		fatal("proved query failed", "list", *list, "err", err)
	}
	resp := res.Responses[0]
	allowed := make(map[int]bool, len(toks))
	for _, tok := range toks {
		allowed[tok.Group] = true
	}
	elems := make([]proof.WindowElement, len(resp.Elements))
	for i, el := range resp.Elements {
		elems[i] = proof.WindowElement{TRS: el.TRS, Sealed: el.Sealed, Group: el.Group}
	}
	if err := proof.VerifyWindow(resp.Proof, allowed, *offset, *count, elems, resp.Exhausted, resp.Version); err != nil {
		fatal("window verification FAILED", "list", *list, "err", err)
	}
	scope := "window"
	if resp.Exhausted && *offset == 0 {
		scope = "whole visible list"
	}
	fmt.Printf("list %d verified: %s [%d,%d) holds %d elements (exhausted=%v) under root %s at version %d\n",
		*list, scope, *offset, *offset+len(resp.Elements), len(resp.Elements), resp.Exhausted,
		resp.Proof.Root, resp.Version)
}

// cmdWire speaks one raw protocol operation through client.HTTP and
// prints what came back as JSON — what curl and jq did for these
// endpoints while their bodies were JSON. Payloads go in and come out
// as base64, the text form they had then.
func cmdWire(ctx context.Context, args []string, out io.Writer) {
	fs := flag.NewFlagSet("wire", flag.ExitOnError)
	serverURL := fs.String("server", "http://localhost:8021", "index server URL")
	user := fs.String("user", "", "user name (required)")
	_ = fs.Parse(args)
	if *user == "" || fs.NArg() == 0 {
		fatal("wire: usage: zerber wire -server URL -user U {insert|query|remove} [flags]")
	}
	op := fs.Arg(0)
	if op != "insert" && op != "query" && op != "remove" {
		fatal("wire: unknown operation", "op", op)
	}
	ofs := flag.NewFlagSet("wire "+op, flag.ExitOnError)
	list := ofs.Int("list", -1, "merged list ID (required)")
	sealed := ofs.String("sealed", "", "insert, remove: sealed payload, base64")
	trs := ofs.Float64("trs", 0, "insert: transformed relevance score")
	group := ofs.Int("group", 0, "insert, remove: group of the token presented (and of an inserted element)")
	offset := ofs.Int("offset", 0, "query: window start within the ranked view")
	count := ofs.Int("count", 10, "query: window size")
	withProof := ofs.Bool("proof", false, "query: ask for the window's Merkle proof")
	_ = ofs.Parse(fs.Args()[1:])
	if *list < 0 {
		fatal("wire: -list is required")
	}
	payload, err := base64.StdEncoding.DecodeString(*sealed)
	if err != nil {
		fatal("wire: -sealed is not base64", "err", err)
	}
	h := client.HTTP{BaseURL: strings.TrimSpace(*serverURL), Retry: client.DefaultRetryPolicy()}
	toks, err := h.Login(ctx, *user)
	if err != nil {
		fatal("login failed", "user", *user, "err", err)
	}
	var tok crypt.Token // insert and remove present one token, the -group one
	if op != "query" {
		i := slices.IndexFunc(toks, func(t crypt.Token) bool { return t.Group == *group })
		if i < 0 {
			fatal("wire: the user holds no token for the group", "user", *user, "group", *group)
		}
		tok = toks[i]
	}
	var answer any = struct{}{}
	switch op {
	case "insert":
		err = h.InsertBatch(ctx, tok, []server.InsertOp{{
			List:    zerber.ListID(*list),
			Element: server.StoredElement{Sealed: payload, TRS: *trs, Group: *group},
		}})
	case "remove":
		err = h.RemoveBatch(ctx, tok, []server.RemoveOp{{List: zerber.ListID(*list), Sealed: payload}})
	case "query":
		var res client.BatchQueryResult
		res, err = h.QueryBatch(ctx, toks, []server.ListQuery{{
			List: zerber.ListID(*list), Offset: *offset, Count: *count, Proof: *withProof,
		}})
		answer = struct {
			Responses []server.QueryResponse `json:"responses"`
		}{res.Responses}
	}
	if err != nil {
		fatal("wire: "+op+" failed", "err", err)
	}
	if err := json.NewEncoder(out).Encode(answer); err != nil {
		fatal("wire: printing the answer failed", "err", err)
	}
}

// fmtLatency renders a latency estimate for the status table; zero
// (no observations, or an uninstrumented server) prints as "-".
func fmtLatency(secs float64) string {
	if secs <= 0 {
		return "-"
	}
	return time.Duration(secs * float64(time.Second)).Round(10 * time.Microsecond).String()
}

// cmdMigrate moves one zerberd's whole index to another over the
// MAC-gated admin plane: the shard-copy procedure Router.Migrate and
// replica resync run (client.CopyShard, then client.CatchUpShard — the
// log records a durable source wrote after the snapshot, applied
// strictly; a second full copy when the source keeps no log or the
// tail does not apply), then a differential digest verification.
// Unlike those two there is no write barrier from out here — writes
// landing on the source during the catch-up make the verification
// fail, and the command says so; rerun it once the source is quiesced.
func cmdMigrate(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("migrate", flag.ExitOnError)
	src := fs.String("src", "", "source server URL (required; a durable source also ships the log tail written during the copy)")
	dst := fs.String("dst", "", "destination server URL (required; its index is replaced)")
	secretFile := fs.String("secret-file", "", "file holding the servers' shared secret — derives the admin MAC (required)")
	verifyOnly := fs.Bool("verify-only", false, "only compare the two servers' digests, move nothing")
	_ = fs.Parse(args)
	if *src == "" || *dst == "" || *secretFile == "" {
		fatal("migrate: -src, -dst and -secret-file are required")
	}
	secret, err := os.ReadFile(*secretFile)
	if err != nil {
		fatal("reading secret failed", "err", err)
	}
	mac := server.AdminMAC(secret)
	sa := client.HTTP{BaseURL: strings.TrimSpace(*src), Retry: client.DefaultRetryPolicy(), AdminMAC: mac}
	da := client.HTTP{BaseURL: strings.TrimSpace(*dst), Retry: client.DefaultRetryPolicy(), AdminMAC: mac}

	start := time.Now()
	tailBytes := 0
	if !*verifyOnly {
		exp, err := client.CopyShard(ctx, sa, da)
		if err != nil {
			fatal("copying the snapshot failed", "err", err)
		}
		logger.Info("snapshot copied", "bytes", len(exp.Data), "seq", exp.Seq, "tailable", exp.Tailable)
		if tailBytes, err = client.CatchUpShard(ctx, sa, da, exp); err != nil {
			fatal("catching the destination up failed", "err", err)
		}
	}
	srcDig, err := sa.Digest(ctx)
	if err != nil {
		fatal("fetching source digest failed", "err", err)
	}
	dstDig, err := da.Digest(ctx)
	if err != nil {
		fatal("fetching destination digest failed", "err", err)
	}
	if err := cluster.DiffDigests(srcDig, dstDig); err != nil {
		fatal("differential verification failed (source still writing? quiesce and rerun)", "err", err)
	}
	elements := 0
	for _, d := range dstDig {
		elements += d.Elements
	}
	logger.Info("migration verified",
		"lists", len(dstDig), "elements", elements, "tail_bytes", tailBytes,
		"elapsed", time.Since(start).Round(time.Millisecond), "verify_only", *verifyOnly)
	fmt.Printf("migrated %d lists (%d elements, %d bytes of log tail) from %s to %s — digests identical\n",
		len(dstDig), elements, tailBytes, *src, *dst)
}
