// Package batching implements continuous batching with chunked prefill —
// the Sarathi-Serve/vLLM-style iteration former all evaluated systems share
// — plus the token-count-based microbatch splitting that state-of-the-art
// pipeline implementations use (and whose imbalance Figure 9 criticizes;
// the KunServe lookahead former in internal/core/lookahead is the fix).
package batching

import (
	"fmt"

	"kunserve/internal/gpu"
	"kunserve/internal/request"
)

// Item is one request's share of an iteration: a prefill chunk of Chunk new
// tokens over Prefix already-present ones, or a decode step (Chunk == 1
// over the request's context). Prefix counts every token whose KV already
// exists — previously prefilled chunks plus prompt tokens served from the
// shared prefix cache — so the attention cost over them is charged but
// their projection/FFN compute is never re-done.
type Item struct {
	Req       *request.Request
	IsPrefill bool
	Chunk     int
	Prefix    int
}

// Tokens returns the new tokens this item contributes to the iteration.
func (it Item) Tokens() int { return it.Chunk }

// ChunkWork converts the item to the GPU timer's work descriptor.
func (it Item) ChunkWork() gpu.ChunkWork {
	return gpu.ChunkWork{PrefixLen: it.Prefix, ChunkLen: it.Chunk}
}

// ToChunkWork converts a batch to GPU work descriptors.
func ToChunkWork(items []Item) []gpu.ChunkWork {
	return AppendChunkWork(nil, items)
}

// AppendChunkWork appends a batch's GPU work descriptors to dst, reusing
// its capacity (hot-path variant of ToChunkWork).
func AppendChunkWork(dst []gpu.ChunkWork, items []Item) []gpu.ChunkWork {
	for _, it := range items {
		dst = append(dst, it.ChunkWork())
	}
	return dst
}

// TotalTokens sums the new tokens across items.
func TotalTokens(items []Item) int {
	n := 0
	for _, it := range items {
		n += it.Chunk
	}
	return n
}

// Budget bounds one iteration's batch.
type Budget struct {
	// MaxTokens is the iteration token budget (chunked-prefill knob).
	MaxTokens int
	// MaxSeqs bounds the number of requests in a batch (0 = unlimited).
	MaxSeqs int
}

// DefaultBudget mirrors the tuned vLLM configuration of §5.1: the token
// budget bounds iteration latency; the sequence cap is set high enough
// that admission is governed by KVCache capacity, not the scheduler.
func DefaultBudget() Budget { return Budget{MaxTokens: 2048, MaxSeqs: 1024} }

// AppendIteration builds one iteration batch, appending into dst and
// reusing its capacity (the engine forms every round into one scratch
// slice). Every decode-ready request contributes one token (decode
// priority, as in vLLM's scheduler), then prefill chunks are packed FCFS
// into the remaining token budget, chunking the last request to fit.
// Requests already done or still waiting stay untouched. Prompt tokens
// served from the shared prefix cache are part of PrefilledTokens at
// admission, so cache hits never occupy budget here: the iteration former
// only sees (and schedules) the chunks left to compute.
func AppendIteration(dst []Item, decodes, prefills []*request.Request, b Budget) []Item {
	if b.MaxTokens <= 0 {
		panic(fmt.Sprintf("batching: MaxTokens = %d", b.MaxTokens))
	}
	items := dst
	tokens := 0
	seqs := 0
	full := func() bool {
		return tokens >= b.MaxTokens || (b.MaxSeqs > 0 && seqs >= b.MaxSeqs)
	}
	for _, r := range decodes {
		if full() {
			break
		}
		items = append(items, Item{Req: r, Chunk: 1, Prefix: r.ContextLen()})
		tokens++
		seqs++
	}
	for _, r := range prefills {
		if full() {
			break
		}
		rem := r.RemainingPrefill()
		if rem <= 0 {
			continue
		}
		chunk := rem
		if tokens+chunk > b.MaxTokens {
			chunk = b.MaxTokens - tokens
		}
		items = append(items, Item{
			Req: r, IsPrefill: true, Chunk: chunk, Prefix: r.PrefilledTokens,
		})
		tokens += chunk
		seqs++
	}
	return items
}

// SplitByTokenCount partitions a batch into at most m microbatches with
// near-equal token counts, preserving request order and chunking prefill
// items across the boundary when needed — the state-of-the-art
// token-count-based formulation (Figure 9 (a)/(b)). Decode items are never
// split (they are single tokens).
func SplitByTokenCount(items []Item, m int) [][]Item {
	if m <= 0 {
		panic(fmt.Sprintf("batching: split into %d microbatches", m))
	}
	total := TotalTokens(items)
	if total == 0 || m == 1 {
		if len(items) == 0 {
			return nil
		}
		return [][]Item{items}
	}
	target := (total + m - 1) / m
	var out [][]Item
	var cur []Item
	curTokens := 0
	flush := func() {
		if len(cur) > 0 {
			out = append(out, cur)
			cur = nil
			curTokens = 0
		}
	}
	for _, it := range items {
		remaining := it
		for remaining.Chunk > 0 {
			space := target - curTokens
			if space <= 0 {
				flush()
				space = target
			}
			if remaining.Chunk <= space || !remaining.IsPrefill {
				cur = append(cur, remaining)
				curTokens += remaining.Chunk
				remaining.Chunk = 0
			} else {
				head := remaining
				head.Chunk = space
				cur = append(cur, head)
				curTokens += space
				remaining.Prefix += space
				remaining.Chunk -= space
				flush()
			}
		}
	}
	flush()
	// Never exceed m microbatches: merge the tail if chunk-splitting
	// produced an extra one.
	for len(out) > m {
		last := out[len(out)-1]
		out = out[:len(out)-1]
		out[len(out)-1] = append(out[len(out)-1], last...)
	}
	return out
}
