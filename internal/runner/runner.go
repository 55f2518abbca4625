// Package runner provides a bounded fork-join worker pool for the
// experiment engine. Every sweep in internal/experiments fans independent
// cells (system x SLO x gamma x feature x model-count) through Map, and the
// speculative goodput search (metrics.MaxGoodputK) uses it to probe several
// candidate rates per round.
//
// Determinism contract: results are always returned in input-index order,
// and item i's result depends only on fn(i) — never on scheduling. A run
// with Workers=1 therefore produces byte-identical experiment tables to a
// run with Workers=N; the determinism test in internal/experiments asserts
// exactly that.
//
// The worker bound is per Map call (nested calls each apply their own
// bound rather than sharing a global semaphore, which would deadlock when
// an outer task blocks on an inner Map). Nesting depth in this repo is at
// most three — experiments x sweep cells x goodput probes — so transient
// oversubscription stays small and the Go scheduler absorbs it.
package runner

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
)

// defaultWorkers is the pool size used by Map/MapNamed when the caller does
// not specify one. <= 0 means runtime.GOMAXPROCS(0).
var defaultWorkers atomic.Int64

// SetDefaultWorkers sets the default parallelism for Map and MapNamed.
// n <= 0 resets to GOMAXPROCS. It returns the previous setting.
// nexus-bench wires its -parallel flag here; 1 forces fully sequential
// execution.
func SetDefaultWorkers(n int) int {
	return int(defaultWorkers.Swap(int64(n)))
}

// DefaultWorkers returns the current default parallelism.
func DefaultWorkers() int {
	if n := int(defaultWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs fn(0..n-1) on up to DefaultWorkers() goroutines and returns the
// results in index order. fn must be safe for concurrent invocation.
func Map[T any](n int, fn func(i int) T) []T {
	return mapN("", DefaultWorkers(), n, fn)
}

// MapNamed is Map with a pprof label: every worker (and the sequential
// fallback) runs under labels {sweep=name, worker=W}, so -cpuprofile and
// -memprofile samples attribute to the experiment that produced them
// (`go tool pprof -tagfocus sweep=figure10 ...`). Labels do not affect
// execution order, so the determinism contract is unchanged.
func MapNamed[T any](name string, n int, fn func(i int) T) []T {
	return mapN(name, DefaultWorkers(), n, fn)
}

// MapN is Map with an explicit worker bound (<= 0 means GOMAXPROCS).
func MapN[T any](workers, n int, fn func(i int) T) []T {
	return mapN("", workers, n, fn)
}

// mapN is the shared fork-join core. A non-empty label wraps each worker
// body in pprof.Do so profile samples carry sweep/worker tags.
func mapN[T any](label string, workers, n int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]T, n)
	if workers == 1 || n == 1 {
		run := func() {
			for i := 0; i < n; i++ {
				out[i] = fn(i)
			}
		}
		if label == "" {
			run()
		} else {
			pprof.Do(context.Background(), pprof.Labels("sweep", label, "worker", "0"),
				func(context.Context) { run() })
		}
		return out
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			body := func() {
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					out[i] = fn(i)
				}
			}
			if label == "" {
				body()
				return
			}
			pprof.Do(context.Background(), pprof.Labels("sweep", label, "worker", strconv.Itoa(w)),
				func(context.Context) { body() })
		}(w)
	}
	wg.Wait()
	return out
}
