// Mobile: the bandwidth-constrained client of Sections 2 and 6.6.
// John queries over a slow link, so the initial response size b and
// the progressive doubling protocol decide how usable the system is.
// This example sweeps b for a top-10 query mix and prints the
// bandwidth/request trade-off the paper's Figures 11-12 chart, plus
// the Section 6.6 byte accounting over a 56 kbit/s modem.
package main

import (
	"context"
	"fmt"
	"log"

	zerberr "zerberr"
	"zerberr/internal/client"
	"zerberr/internal/corpus"
	"zerberr/internal/crypt"
	"zerberr/internal/workload"
)

func main() {
	log.SetFlags(0)

	profile := corpus.ProfileODP()
	profile.NumDocs = 800
	profile.VocabSize = 8000
	c := corpus.Generate(profile, 11)

	cfg := zerberr.DefaultConfig()
	cfg.Seed = 11
	cfg.Codec = crypt.Compact64Codec{} // the paper's 64-bit elements
	sys, err := zerberr.Setup(c, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.IndexAll(); err != nil {
		log.Fatal(err)
	}
	cl, err := sys.NewClient("john")
	if err != nil {
		log.Fatal(err)
	}

	logq := workload.Generate(c, 300, 11)
	stream := logq.SingleTermStream()
	if len(stream) > 400 {
		stream = stream[:400]
	}

	const k = 10
	fmt.Printf("replaying %d single-term top-%d queries at several initial response sizes b:\n\n", len(stream), k)
	fmt.Printf("%4s  %12s  %14s  %12s\n", "b", "avg requests", "avg elements", "avg bytes")
	for _, b := range []int{1, 5, 10, 20, 50} {
		var reqs, elems, bytes int
		for _, term := range stream {
			_, st, err := cl.Search(context.Background(), []corpus.TermID{term}, k, client.WithInitialResponse(b))
			if err != nil {
				log.Fatal(err)
			}
			reqs += st.Requests
			elems += st.Elements
			bytes += st.Bytes
		}
		n := float64(len(stream))
		fmt.Printf("%4d  %12.2f  %14.1f  %12.1f\n", b,
			float64(reqs)/n, float64(elems)/n, float64(bytes)/n)
	}

	// Section 6.6 accounting at the paper's recommended b = k.
	var totalBytes int
	for _, term := range stream {
		_, st, err := cl.Search(context.Background(), []corpus.TermID{term}, k, client.WithInitialResponse(10))
		if err != nil {
			log.Fatal(err)
		}
		totalBytes += st.Bytes
	}
	perTermKB := float64(totalBytes) / float64(len(stream)) / 1024
	const termsPerQuery = 2.4
	snippetsKB := 10 * 250.0 / 1024
	top10KB := perTermKB*termsPerQuery + snippetsKB
	const modemKBps = 56.0 / 8 // 56 kbit/s GPRS-era link
	fmt.Printf("\nSection 6.6 accounting (b=k=10, 64-bit elements):\n")
	fmt.Printf("  response per query term: %.2f KB\n", perTermKB)
	fmt.Printf("  full top-10 response (%.1f terms + snippets): %.2f KB\n", termsPerQuery, top10KB)
	fmt.Printf("  transfer time on a 56 kbit/s modem: %.2f s (Google-sized 15 KB page: %.2f s)\n",
		top10KB/modemKBps, 15/modemKBps)
}
