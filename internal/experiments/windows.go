package experiments

import (
	"context"
	"fmt"

	zerberr "zerberr"
	"zerberr/internal/client"
	"zerberr/internal/crypt"
	"zerberr/internal/plot"
	"zerberr/internal/stats"
)

// windowKs is the k grid of the first-window sweep.
var windowKs = []int{1, 10, 50, 200}

// windowQueries bounds the queries each cell of the sweep replays.
const windowQueries = 200

// WindowSweep prices the first-window rule in process. On the ODP
// collection's BFM plan and on a 64-list plan over the same corpus
// (the shape of the benchmark's deep workload), it replays the head of
// the query log at each k with the paper's fixed b = 10 and with
// first windows derived per list from the merge plan
// (client.FirstWindow), and reports rounds, requests and elements per
// search.
func WindowSweep(e *Env) (*Result, error) {
	bfm, err := e.System("odp")
	if err != nil {
		return nil, err
	}
	log, err := e.Workload("odp")
	if err != nil {
		return nil, err
	}
	cfg := zerberr.DefaultConfig()
	cfg.Seed = e.Seed
	cfg.Codec = crypt.Compact64Codec{}
	cfg.SkipBaseline = true
	cfg.MaxLists = 64
	wide, err := zerberr.Setup(bfm.Corpus, cfg)
	if err != nil {
		return nil, err
	}
	if err := wide.IndexAll(); err != nil {
		return nil, err
	}
	queries := log.Queries[:min(windowQueries, len(log.Queries))]
	res := &Result{
		ChartOpts: plot.Options{LogX: true, XLabel: "k", YLabel: "rounds per search"},
		Headers: []string{"plan", "k", "rounds (b=10)", "rounds (derived)",
			"requests (b=10)", "requests (derived)", "elements (b=10)", "elements (derived)"},
	}
	for _, plan := range []struct {
		name string
		sys  *zerberr.System
	}{{fmt.Sprintf("BFM, %d lists", bfm.Plan.NumLists()), bfm}, {fmt.Sprintf("%d lists", wide.Plan.NumLists()), wide}} {
		cl, err := plan.sys.NewClient("window-sweep")
		if err != nil {
			return nil, err
		}
		pinned := stats.Series{Name: plan.name + ", b=10"}
		derived := stats.Series{Name: plan.name + ", derived"}
		for _, k := range windowKs {
			var sum [2]client.QueryStats
			for i, opts := range [][]client.SearchOption{{client.WithInitialResponse(10)}, nil} {
				for _, q := range queries {
					_, st, err := cl.Search(context.Background(), q.Terms, k, opts...)
					if err != nil {
						return nil, fmt.Errorf("windows: k=%d: %w", k, err)
					}
					sum[i].Rounds += st.Rounds
					sum[i].Requests += st.Requests
					sum[i].Elements += st.Elements
				}
			}
			mean := func(total int) float64 { return float64(total) / float64(len(queries)) }
			res.Rows = append(res.Rows, []interface{}{plan.name, k,
				mean(sum[0].Rounds), mean(sum[1].Rounds), mean(sum[0].Requests), mean(sum[1].Requests), mean(sum[0].Elements), mean(sum[1].Elements)})
			pinned.X, pinned.Y = append(pinned.X, float64(k)), append(pinned.Y, mean(sum[0].Rounds))
			derived.X, derived.Y = append(derived.X, float64(k)), append(derived.Y, mean(sum[1].Rounds))
		}
		res.Series = append(res.Series, pinned, derived)
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d queries of the ODP log per cell; a derived first window is max(b, ⌈k · ListMass(l) / (2 · max P(t))⌉), follow-ups double as before", len(queries)),
		"paper: one initial response size b for every list (b = k); on a merged list the k-th match of its most frequent term sits about k · mass / max p deep, so a fixed b spends its rounds doubling up to it")
	return res, nil
}
