package runner

// Helpers only the tests use.

// MapN is Map with an explicit worker bound (<= 0 means GOMAXPROCS).
func MapN[T any](workers, n int, fn func(i int) T) []T {
	return mapN("", workers, n, fn)
}

// MapErr runs fn(0..n-1) concurrently like Map. If any invocation returns
// an error, MapErr reports the error with the lowest index (deterministic
// regardless of completion order) alongside the partial results; result i
// is valid iff fn(i) returned nil.
func MapErr[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	type slot struct {
		v   T
		err error
	}
	slots := MapN(DefaultWorkers(), n, func(i int) slot {
		v, err := fn(i)
		return slot{v, err}
	})
	out := make([]T, n)
	var firstErr error
	for i, s := range slots {
		out[i] = s.v
		if s.err != nil && firstErr == nil {
			firstErr = s.err
		}
	}
	return out, firstErr
}
