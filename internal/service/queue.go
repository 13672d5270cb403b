// Admission control: a bounded FIFO job queue drained by the server's
// worker pool, and a per-client token-bucket rate limiter. Both reject with
// typed errors the HTTP layer renders as structured bodies (ErrorBody), so
// clients distinguish "slow down" from "queue full" from "bad request".

package service

import (
	"errors"
	"sync"
	"time"

	"mpcn/internal/explore/spec"
)

// ErrQueueFull reports a submission bounced off a full job queue.
var ErrQueueFull = errors.New("service: job queue full")

// ErrRateLimited reports a submission rejected by the client's token bucket.
var ErrRateLimited = errors.New("service: rate limit exceeded")

// ErrorBody is the JSON error payload of every non-2xx daemon response.
type ErrorBody struct {
	// Error is the human-readable message; Kind a stable machine tag:
	// "bad_request", "param", "rate_limited", "queue_full", "not_found",
	// "conflict", "too_large".
	Error string `json:"error"`
	Kind  string `json:"kind"`
	// Param carries the declared domains of a rejected parameter assignment
	// (Kind "param").
	Param *spec.ParamErrorInfo `json:"param,omitempty"`
	// RetryAfterMS hints when a rate-limited client may retry.
	RetryAfterMS int64 `json:"retryAfterMs,omitempty"`
}

// queue is the bounded FIFO of accepted jobs. A channel gives the FIFO order
// and the worker-pool handoff; canceled jobs stay queued (a slot is cheap)
// and are skipped when popped.
type queue struct {
	ch chan *jobState
}

func newQueue(capacity int) *queue {
	if capacity <= 0 {
		capacity = 64
	}
	return &queue{ch: make(chan *jobState, capacity)}
}

// push enqueues without blocking; a full queue rejects.
func (q *queue) push(j *jobState) error {
	select {
	case q.ch <- j:
		return nil
	default:
		return ErrQueueFull
	}
}

// depth is the number of queued (possibly already-canceled) jobs.
func (q *queue) depth() int { return len(q.ch) }

// RateLimiter is a per-client token bucket: each client holds up to Burst
// tokens, refilled at Rate tokens/second; a submission spends one. The zero
// value is not usable; use NewRateLimiter. now is injectable for
// deterministic tests.
type RateLimiter struct {
	mu      sync.Mutex
	rate    float64
	burst   float64
	now     func() time.Time
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewRateLimiter builds a limiter granting burst tokens per client, refilled
// at rate tokens/second. rate <= 0 disables limiting.
func NewRateLimiter(rate float64, burst int) *RateLimiter {
	if burst < 1 {
		burst = 1
	}
	return &RateLimiter{
		rate:    rate,
		burst:   float64(burst),
		now:     time.Now,
		buckets: make(map[string]*bucket),
	}
}

// Allow spends one token of the client's bucket, reporting false (and the
// wait until a token refills) when empty.
func (l *RateLimiter) Allow(client string) (bool, time.Duration) {
	if l == nil || l.rate <= 0 {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b, ok := l.buckets[client]
	if !ok {
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[client] = b
	} else {
		b.tokens += now.Sub(b.last).Seconds() * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
	return false, wait
}
