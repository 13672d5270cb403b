// Package pool is the worker-pool plumbing the exhaustive and the sampling
// engines share: start the workers, halt them once, relay a context's
// cancellation, re-raise a worker's panic on the caller, and pick the error
// that wins. How work is handed out stays with each engine.
package pool

import (
	"context"
	"fmt"
	"sync"
)

// Run calls work(k, stop) on n goroutines, k = 0..n-1 (on the caller's when
// n is 1), and returns once all of them have. stop closes when ctx is cancelled or when any worker returns
// an error or panics; workers poll it at their next boundary. A worker's
// panic is re-raised on the caller's goroutine, prefixed with engine. The
// returned error is that of the failing worker with the lowest rank(k) (nil
// rank: the lowest k); when no worker failed it is ctx's error, so a
// violation a worker found outranks a cancellation that raced with it.
func Run(ctx context.Context, engine string, n int, rank func(k int) int, work func(k int, stop <-chan struct{}) error) error {
	stop := make(chan struct{})
	var once sync.Once
	halt := func() { once.Do(func() { close(stop) }) }

	// Relay ctx cancellation into the halt signal; the relay exits when the
	// workers drain (done), so it never leaks. A ctx cancelled up front halts
	// the pool before any worker starts.
	if ctx.Err() != nil {
		halt()
	}
	done := make(chan struct{})
	defer close(done)
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				halt()
			case <-done:
			}
		}()
	}

	errs := make([]error, n)
	panics := make([]any, n)
	call := func(k int) {
		defer func() {
			if r := recover(); r != nil {
				panics[k] = r
				halt()
			}
		}()
		if errs[k] = work(k, stop); errs[k] != nil {
			halt()
		}
	}
	if n == 1 {
		// A lone worker runs on the caller's goroutine: a long-lived caller
		// (a daemon runner) has already grown the stack a run needs, where a
		// fresh goroutine would grow it again on every call.
		call(0)
	} else {
		var wg sync.WaitGroup
		for k := 0; k < n; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				call(k)
			}(k)
		}
		wg.Wait()
	}

	first := -1
	for k := range errs {
		if panics[k] != nil {
			panic(fmt.Sprintf("%s: checker panicked in worker %d: %v", engine, k, panics[k]))
		}
		if errs[k] != nil && (first < 0 || rank != nil && rank(k) < rank(first)) {
			first = k
		}
	}
	if first >= 0 {
		return errs[first]
	}
	return ctx.Err()
}
