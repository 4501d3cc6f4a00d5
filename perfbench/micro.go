package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"kunserve/internal/batching"
	"kunserve/internal/core/lookahead"
	"kunserve/internal/costmodel"
	"kunserve/internal/gpu"
	"kunserve/internal/kvcache"
	"kunserve/internal/metrics"
	"kunserve/internal/model"
	"kunserve/internal/sim"
	"kunserve/internal/workload"
)

// microReps is how many times each microbenchmark repeats its fixed
// operation count; the median repetition is reported.
const microReps = 5

// timeOps runs op microReps times and returns the median ns per operation,
// where one call of op performs ops operations.
func timeOps(ops int, op func()) float64 {
	var ns []float64
	for i := 0; i < microReps; i++ {
		t0 := time.Now()
		op()
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(ops))
	}
	sort.Float64s(ns)
	return ns[len(ns)/2]
}

// microBench times direct calls into single layers. Input sizes come from
// the workload: its instance count and its trace's request lengths.
func microBench(w *benchWorkload, tr *workload.Trace, seed int64) (map[string]float64, error) {
	m := model.Qwen25_14B()
	cm, err := costmodel.FitFromTimer(gpu.NewTimer(gpu.A800(), m, m.GPUsPerInstance))
	if err != nil {
		return nil, fmt.Errorf("micro: cost model: %w", err)
	}
	table := costmodel.ForModel(cm)
	reqs := tr.Requests
	if len(reqs) > 2000 {
		reqs = reqs[:2000]
	}
	out := map[string]float64{}
	out["micro.sim.event_ns"] = microSimEvent(16*w.instances, seed)
	if out["micro.kvcache.append_ns"], err = microAppend(reqs); err != nil {
		return nil, err
	}
	if out["micro.kvcache.cached_seq_ns"], err = microCachedSeq(reqs); err != nil {
		return nil, err
	}
	batches := decodeBatches(reqs)
	work := make([][]gpu.ChunkWork, len(batches))
	for i, b := range batches {
		work[i] = batching.ToChunkWork(b)
	}
	out["micro.costmodel.batch_ns"] = timeOps(len(work)*20, func() {
		for i := 0; i < 20; i++ {
			for _, cw := range work {
				sinkF += table.BatchSeconds(cw)
			}
		}
	})
	out["micro.metrics.observe_ns"] = microObserve(reqs, seed)
	f := &lookahead.Former{Model: cm, Table: table}
	out["micro.lookahead.form_ns"] = timeOps(len(batches)*5, func() {
		for i := 0; i < 5; i++ {
			for _, b := range batches {
				sinkN += len(f.Form(b, 2))
			}
		}
	})
	return out, nil
}

// Sinks keep the compiler from discarding measured results.
var (
	sinkF float64
	sinkN int
)

// microSimEvent keeps depth events pending and times one At plus one Step
// per operation: every fired event schedules its successor.
func microSimEvent(depth int, seed int64) float64 {
	const ops = 1 << 20
	rng := rand.New(rand.NewSource(seed))
	delays := make([]sim.Duration, 4096)
	for i := range delays {
		delays[i] = sim.Duration(1 + rng.Int63n(int64(10*sim.Millisecond)))
	}
	return timeOps(ops, func() {
		s := sim.New(seed)
		k := 0
		var fire func()
		fire = func() {
			k++
			s.At(s.Now().Add(delays[k&4095]), "", fire)
		}
		for i := 0; i < depth; i++ {
			s.At(sim.Time(delays[i&4095]), "", fire)
		}
		for i := 0; i < ops; i++ {
			s.Step()
		}
	})
}

// microAppend prefills each request's prompt and appends its output one
// token at a time, as decode does; it reports ns per appended token,
// including each sequence's allocation and free.
func microAppend(reqs []workload.Request) (float64, error) {
	const blockTokens = 64
	maxTokens := 0
	appends := 0
	for _, r := range reqs {
		maxTokens = max(maxTokens, r.InputLen+r.OutputLen)
		appends += r.OutputLen
	}
	pool := kvcache.NewPool(maxTokens/blockTokens+2, blockTokens)
	var err error
	ns := timeOps(appends, func() {
		for _, r := range reqs {
			s, e := pool.NewSeq(r.InputLen)
			if e != nil {
				err = e
				return
			}
			for j := 0; j < r.OutputLen; j++ {
				if e := s.Append(1); e != nil {
					err = e
					return
				}
			}
			s.Free()
		}
	})
	if err != nil {
		return 0, fmt.Errorf("micro: kvcache append: %w", err)
	}
	return ns, nil
}

// microCachedSeq times NewSeqCached chain matches against 16 warmed prefix
// chains. The prefix length is the trace's largest shared prefix, or its
// median prompt when no request shares one.
func microCachedSeq(reqs []workload.Request) (float64, error) {
	const (
		blockTokens = 64
		prefixes    = 16
		batch       = 256
		rounds      = 64
	)
	tokens := 0
	lens := make([]int, 0, len(reqs))
	for _, r := range reqs {
		tokens = max(tokens, r.SharedPrefix)
		lens = append(lens, r.InputLen)
	}
	if tokens == 0 {
		slices.Sort(lens)
		tokens = lens[len(lens)/2]
	}
	pool := kvcache.NewPool(prefixes*(tokens/blockTokens+2)+batch, blockTokens)
	pool.EnableSharing(kvcache.EvictLRU)
	pfx := make([]kvcache.Prefix, prefixes)
	for i := range pfx {
		pfx[i] = kvcache.Prefix{ID: fmt.Sprintf("agent%02d", i), Tokens: tokens}
		s, _, err := pool.NewSeqCached(pfx[i])
		if err == nil {
			err = s.Append(tokens + 1)
		}
		if err != nil {
			return 0, fmt.Errorf("micro: kvcache warm prefix: %w", err)
		}
		s.Free()
	}
	seqs := make([]*kvcache.Seq, batch)
	var err error
	var total time.Duration
	var ns []float64
	for rep := 0; rep < microReps; rep++ {
		total = 0
		for round := 0; round < rounds; round++ {
			t0 := time.Now()
			for i := range seqs {
				seqs[i], _, err = pool.NewSeqCached(pfx[i%prefixes])
				if err != nil {
					return 0, fmt.Errorf("micro: kvcache cached seq: %w", err)
				}
			}
			total += time.Since(t0)
			for _, s := range seqs {
				s.Free()
			}
		}
		ns = append(ns, float64(total.Nanoseconds())/float64(batch*rounds))
	}
	sort.Float64s(ns)
	return ns[len(ns)/2], nil
}

// decodeBatches forms iteration batches from the trace the way a loaded
// engine sees them: 48 decoding requests at their prompt lengths plus two
// prefill chunks of up to 512 tokens.
func decodeBatches(reqs []workload.Request) [][]batching.Item {
	var out [][]batching.Item
	for i := 0; i+50 <= len(reqs); i += 50 {
		b := make([]batching.Item, 0, 50)
		for _, r := range reqs[i : i+48] {
			b = append(b, batching.Item{Chunk: 1, Prefix: r.InputLen})
		}
		for _, r := range reqs[i+48 : i+50] {
			b = append(b, batching.Item{IsPrefill: true, Chunk: min(r.InputLen, 512)})
		}
		out = append(out, b)
	}
	return out
}

// microObserve feeds reservoir distributions (the streaming collector's
// percentile store) with per-request values drawn from the trace.
func microObserve(reqs []workload.Request, seed int64) float64 {
	const ops = 1 << 20
	vals := make([]float64, len(reqs))
	for i, r := range reqs {
		vals[i] = float64(r.InputLen) / 1e4
	}
	return timeOps(ops, func() {
		d := metrics.NewReservoirDist(4096, seed)
		for i := 0; i < ops; i++ {
			d.Add(vals[i%len(vals)])
		}
		sinkN += d.Count()
	})
}
