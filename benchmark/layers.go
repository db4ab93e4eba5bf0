package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"zerberr/internal/crypt"
)

// perLayer turns the recorded spans and the layers' own counters into
// the per-layer metrics. Times are self times (see selfTimes) in
// milliseconds per traced search — per traced write for the write
// kinds — so on one workload they add up to client.search_ms.
func (fx *fixture) perLayer(ctx context.Context, m map[string]metric, sum tally, before, after counters) error {
	ctx, cancel := context.WithTimeoutCause(ctx, 10*time.Second, errors.New("cancelled requests did not finish"))
	defer cancel()
	spans, err := fx.rec.settled(ctx)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	self, err := selfTimes(spans)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	// Which kind each root is, then every span's self time and count
	// go to its root's side: search or write.
	rootKind := make(map[uint32]kind)
	var searches, writes, searchNs, writeNs float64
	for _, s := range spans {
		if s.Parent != 0 {
			continue
		}
		rootKind[s.ID] = s.Kind
		if s.Kind == kClientSearch {
			searches++
			searchNs += float64(s.End - s.Start)
		} else {
			writes++
			writeNs += float64(s.End - s.Start)
		}
	}
	if searches == 0 {
		return fmt.Errorf("trace: no search was traced")
	}
	var inSearch, inWrite [numKinds]struct{ ns, n float64 }
	for i, s := range spans {
		side := &inSearch
		if rootKind[s.Root] == kClientWrite {
			side = &inWrite
		}
		side[s.Kind].ns += self[i]
		side[s.Kind].n++
	}
	perSearch := func(k kind) float64 { return inSearch[k].ns / searches / 1e6 }
	perWrite := func(k kind) float64 {
		if writes == 0 {
			return 0
		}
		return inWrite[k].ns / writes / 1e6
	}
	put := func(name string, v float64) { m[name] = metric{v, unitOf(perLayerMetrics, name)} }

	searchMs := searchNs / searches / 1e6
	put("client.search_ms", searchMs)
	put("client.self_ms", perSearch(kClientSearch))
	put("client.elements_per_result", ratio(float64(sum.elements), float64(sum.results)))
	put("client.write_ms", ratio(writeNs/1e6, writes))
	put("crypt.open_ms", perSearch(kCryptOpen))
	put("crypt.open_calls", inSearch[kCryptOpen].n/searches)
	put("crypt.seal_ms", perWrite(kCryptSeal))
	put("transport.self_ms", perSearch(kTransport))
	put("transport.rounds", inSearch[kTransport].n/searches)
	attempts := float64(fx.wire.attempts.Load())
	put("transport.request_bytes", ratio(float64(fx.wire.requestBytes.Load()), attempts))
	put("transport.response_bytes", ratio(float64(fx.wire.responseBytes.Load()), attempts))
	put("transport.retries", attempts-inSearch[kTransport].n-inWrite[kTransport].n)
	put("cluster.self_ms", perSearch(kCluster))
	put("cluster.shards_per_round", ratio(inSearch[kReplica].n, inSearch[kCluster].n))
	d := after.minus(before)
	put("cluster.shard_faults", float64(d.shardFaults))
	put("replica.self_ms", perSearch(kReplica))
	put("replica.hedged_ratio", ratio(d.hedges, d.replicaReads))
	put("replica.failovers", float64(d.failovers))
	put("server.self_ms", perSearch(kServer))
	var requests, errors, queryCalls, queryElements float64
	for _, n := range fx.nodes {
		requests += float64(n.trace.requests.Load())
		errors += float64(n.trace.errors.Load())
		queryCalls += float64(n.trace.queryCalls.Load())
		queryElements += float64(n.trace.queryElements.Load())
	}
	put("server.requests", requests/(searches+writes))
	put("server.errors", errors)
	put("cache.hit_ratio", ratio(d.cache.Hits, d.cache.Hits+d.cache.Misses))
	put("cache.evictions", float64(d.cache.Evictions))
	put("cache.bytes_mb", float64(after.cache.Bytes)/(1<<20))
	put("store.query_ms", perSearch(kStoreQuery))
	put("store.query_calls", (inSearch[kStoreQuery].n+inSearch[kStoreQueryProved].n)/searches)
	put("store.elements_per_call", ratio(queryElements, queryCalls))
	put("store.query_proved_ms", perSearch(kStoreQueryProved))
	put("store.insert_ms", perWrite(kStoreInsert))
	put("store.remove_ms", perWrite(kStoreRemove))
	var walBytes, walElements float64
	for _, n := range fx.nodes {
		walBytes += float64(n.trace.walBytes.Load())
		walElements += float64(n.trace.walElements.Load())
	}
	put("store.wal_bytes_per_element", ratio(walBytes, walElements))
	diskBytes, live := fx.diskUse()
	put("store.disk_bytes_per_live_byte", ratio(diskBytes, live))
	put("store.snapshots", float64(d.snapshots))

	var layers float64
	for k := kind(0); k < numKinds; k++ {
		layers += inSearch[k].ns
	}
	put("trace.sum_error_ratio", math.Abs(layers-searchNs)/searchNs)
	if v := m["trace.sum_error_ratio"].Value; v > 0.01 {
		return fmt.Errorf("trace: layer self times miss client.search_ms by %.2f%%", v*100)
	}
	var tracedMs, plainMs, nTraced, nPlain float64
	for _, d := range sum.done {
		switch {
		case !d.search:
		case d.traced:
			tracedMs, nTraced = tracedMs+d.ms, nTraced+1
		default:
			plainMs, nPlain = plainMs+d.ms, nPlain+1
		}
	}
	put("trace.overhead_ratio", ratio(ratio(tracedMs, nTraced), ratio(plainMs, nPlain)))
	return nil
}

// diskUse reads the data directories: the bytes in all their files
// and the bytes of live sealed payloads those files hold.
func (fx *fixture) diskUse() (disk, live float64) {
	for _, n := range fx.nodes {
		entries, err := os.ReadDir(n.dir)
		if err != nil {
			continue
		}
		for _, e := range entries {
			if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
				disk += float64(info.Size())
			}
		}
		if elems, err := n.durable.NumElements(); err == nil {
			live += float64(elems * crypt.GCMCodec{}.WireSize())
		}
	}
	return disk, live
}
