package zerberr_test

// Benchmark harness: one testing.B per evaluation artifact of the
// paper (Figures 4-13 and the Section 6.6 bandwidth analysis) plus
// benchmarks of the moving parts (RSTF evaluation, element codecs,
// protocol round trips, index building). The figure benches mount the
// experiment registry and regenerate each entry end to end; `go test
// -bench .` therefore doubles as the reproduction run. Use
// cmd/zerber-bench for charts and larger scales.

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	zerberr "zerberr"
	"zerberr/internal/client"
	"zerberr/internal/corpus"
	"zerberr/internal/crypt"
	"zerberr/internal/experiments"
	"zerberr/internal/rank"
	"zerberr/internal/rstf"
	"zerberr/internal/server"
	"zerberr/internal/stats"
)

// BenchmarkExperiment regenerates every registered paper experiment
// end to end, one sub-benchmark per registry entry. They share one
// Env, so corpora, indexes and protocol replays are built once.
func BenchmarkExperiment(b *testing.B) {
	ctx, env := context.Background(), experiments.NewEnv(0.08, 1)
	for _, x := range experiments.Paper() {
		b.Run(x.Name, func(b *testing.B) {
			// Warm the caches outside the timer.
			if _, err := x.Run(ctx, env); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := x.Run(ctx, env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- micro-benchmarks ---

func benchScores(n int) []float64 {
	g := stats.NewRNG(9)
	out := make([]float64, n)
	for i := range out {
		v := g.Float64()
		out[i] = 0.001 + 0.2*v*v
	}
	return out
}

func BenchmarkRSTFTransform(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("train=%d", n), func(b *testing.B) {
			f, err := rstf.New(benchScores(n), 1024)
			if err != nil {
				b.Fatal(err)
			}
			xs := benchScores(256)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Transform(xs[i%len(xs)])
			}
		})
	}
}

func BenchmarkRSTFTrainWithCrossValidation(b *testing.B) {
	train := benchScores(200)
	control := benchScores(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rstf.Train(train, control); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkElementSeal(b *testing.B) {
	key := crypt.KeyFromPassphrase("bench")
	el := crypt.Element{Doc: 1234, Term: 567, Score: 0.0625}
	for _, codec := range []crypt.ElementCodec{crypt.GCMCodec{}, crypt.Compact64Codec{}} {
		b.Run(codec.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := codec.Seal(el, key); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkElementOpen(b *testing.B) {
	key := crypt.KeyFromPassphrase("bench")
	el := crypt.Element{Doc: 1234, Term: 567, Score: 0.0625}
	for _, codec := range []crypt.ElementCodec{crypt.GCMCodec{}, crypt.Compact64Codec{}} {
		ct, err := codec.Seal(el, key)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(codec.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := codec.Open(ct, key); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchSystem builds a small indexed deployment once for the protocol
// benchmarks.
var (
	benchSysOnce sync.Once
	benchSys     *zerberr.System
	benchSysErr  error
)

func getBenchSystem() (*zerberr.System, error) {
	benchSysOnce.Do(func() {
		p := corpus.ProfileStudIP()
		p.NumDocs = 400
		p.VocabSize = 4000
		c := corpus.Generate(p, 5)
		cfg := zerberr.DefaultConfig()
		cfg.Seed = 5
		cfg.Codec = crypt.Compact64Codec{}
		benchSys, benchSysErr = zerberr.Setup(c, cfg)
		if benchSysErr == nil {
			benchSysErr = benchSys.IndexAll()
		}
	})
	return benchSys, benchSysErr
}

func BenchmarkProtocolTopK(b *testing.B) {
	sys, err := getBenchSystem()
	if err != nil {
		b.Fatal(err)
	}
	cl, err := sys.NewClient("bench-reader")
	if err != nil {
		b.Fatal(err)
	}
	terms := sys.Corpus.TermsByDF()
	probe := []corpus.TermID{terms[0], terms[20], terms[200], terms[len(terms)/2]}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cl.Search(context.Background(), []corpus.TermID{probe[i%len(probe)]}, 10, client.WithInitialResponse(10)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselineTopK(b *testing.B) {
	sys, err := getBenchSystem()
	if err != nil {
		b.Fatal(err)
	}
	terms := sys.Corpus.TermsByDF()
	probe := []corpus.TermID{terms[0], terms[20], terms[200], terms[len(terms)/2]}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Baseline.TopK(probe[i%len(probe)], 10)
	}
}

func BenchmarkIndexDocument(b *testing.B) {
	sys, err := getBenchSystem()
	if err != nil {
		b.Fatal(err)
	}
	cl, err := sys.NewClient("bench-writer")
	if err != nil {
		b.Fatal(err)
	}
	doc := sys.Corpus.Docs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := &corpus.Document{
			ID:     corpus.DocID(1_000_000 + i),
			Group:  doc.Group,
			Length: doc.Length,
			TF:     doc.TF,
		}
		if err := cl.IndexDocument(context.Background(), d, d.Group); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWindowCodec is the layer-level number behind the wire
// frame: one `deep`-shaped response (250 elements of 44 sealed bytes)
// through server.AppendQueryResponse into a reused buffer, and through
// server.DecodeQueryResponse with the payloads aliasing the frame.
func BenchmarkWindowCodec(b *testing.B) {
	elems := make([]server.StoredElement, 250)
	for i := range elems {
		elems[i] = server.StoredElement{Sealed: bytes.Repeat([]byte{byte(i)}, 44), TRS: 1 - float64(i)/250, Group: i % 8}
	}
	resps := []server.QueryResponse{{Elements: elems, Version: 1<<40 + 12}}
	frame := server.AppendQueryResponse(nil, resps)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(frame)))
		buf := make([]byte, 0, len(frame))
		for i := 0; i < b.N; i++ {
			buf = server.AppendQueryResponse(buf[:0], resps)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(frame)))
		for i := 0; i < b.N; i++ {
			if _, err := server.DecodeQueryResponse(frame); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkRankTopK(b *testing.B) {
	g := stats.NewRNG(13)
	scores := make(map[corpus.DocID]float64, 10000)
	for i := 0; i < 10000; i++ {
		scores[corpus.DocID(i)] = g.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rank.TopK(scores, 10)
	}
}
