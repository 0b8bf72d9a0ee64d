package core

import (
	"context"
	"sync"
)

// loopBody is the body of a parallel loop: run handles items [lo, hi) as
// chunk chunk. The run's bodies are pointer types over a worker's scratch
// (mergeBody, scoreBody), so handing one to a loop allocates nothing, where
// a bound method value would allocate once per worker and run.
type loopBody interface{ run(chunk, lo, hi int) }

// parallelFor splits [0, n) into contiguous chunks and runs body on each
// chunk from its own goroutine. With workers ≤ 1 (or a small n) it runs
// inline. Chunks are contiguous so callers can write into pre-sized result
// slices without synchronization and with deterministic placement. body also
// gets the chunk's index, below max(workers, 1): concurrent calls never share
// one.
func parallelFor(n, workers int, body loopBody) {
	if inline(n, workers) {
		body.run(0, 0, n)
		return
	}
	workers = min(workers, n)
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body.run(lo/chunk, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// inline reports whether parallelFor runs n items on workers in the caller.
func inline(n, workers int) bool { return workers <= 1 || n < 64 }

// parallelForCtx is parallelFor with cooperative cancellation: every worker
// walks its chunk in blocks of at most `block` items and re-checks ctx
// between blocks, so a cancelled context stops the loop within one block of
// work per worker rather than at the end of the chunk. It returns ctx.Err()
// when the context was cancelled — the caller must then treat any
// partially-filled result slice as invalid. A context that can never be
// cancelled (Done() == nil, e.g. context.Background()) takes the unchecked
// fast path with zero per-block overhead. A loop run in the caller wraps body
// in nothing, so it allocates nothing of its own.
func parallelForCtx(ctx context.Context, n, workers, block int, body loopBody) error {
	if ctx == nil || ctx.Done() == nil {
		parallelFor(n, workers, body)
		return nil
	}
	if inline(n, workers) {
		inBlocks(ctx, block, body, 0, 0, n)
	} else {
		parallelFor(n, workers, &blocked{ctx, block, body})
	}
	return ctx.Err()
}

// inBlocks runs body over chunk [lo, hi) in blocks of at most block items,
// until ctx is done.
func inBlocks(ctx context.Context, block int, body loopBody, chunk, lo, hi int) {
	for b := lo; b < hi; b += block {
		if ctx.Err() != nil {
			return
		}
		body.run(chunk, b, min(b+block, hi))
	}
}

// blocked is body run in blocks, by inBlocks, on every chunk.
type blocked struct {
	ctx   context.Context
	block int
	body  loopBody
}

func (b *blocked) run(chunk, lo, hi int) { inBlocks(b.ctx, b.block, b.body, chunk, lo, hi) }
