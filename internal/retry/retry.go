// Package retry is the repo's one backoff implementation: capped
// exponential delays with symmetric jitter, honoring context
// cancellation in both the operation and the sleeps between attempts.
//
// It was extracted from mpi.DialWorkerRetryCtx (PR 1's worker-rejoin
// path) so the job service's bounded job retries and any future
// reconnect/redo loop share one tested policy instead of growing bespoke
// sleep loops. Jitter is seeded explicitly: a fleet of retriers with
// distinct seeds desynchronizes, and a test with a fixed seed replays the
// exact delay ladder.
package retry

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Policy shapes one retry loop. The zero value retries once (i.e. no
// retries) with the default delays; callers usually set Attempts.
type Policy struct {
	// Attempts is the total number of tries before giving up (min 1).
	Attempts int
	// BaseDelay is the wait after the first failure; it doubles per
	// attempt. Defaults to 100ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff ladder. Defaults to 5s.
	MaxDelay time.Duration
	// Jitter in [0,1] randomizes each wait by ±Jitter fraction so a fleet
	// of retriers does not fire in lockstep. Defaults to 0.5 when
	// negative or above 1; 0 means none.
	Jitter float64
	// Seed makes the jitter deterministic when nonzero (tests, replayable
	// soaks). Zero seeds from the wall clock.
	Seed int64
}

// withDefaults resolves the documented defaults.
func (p Policy) withDefaults() Policy {
	if p.Attempts < 1 {
		p.Attempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	if p.Jitter < 0 || p.Jitter > 1 {
		p.Jitter = 0.5
	}
	if p.Seed == 0 {
		p.Seed = time.Now().UnixNano()
	}
	return p
}

// canceled reports a retry loop ended by its context rather than by
// exhausting the attempt budget; errors.Is(err, ctx.Err()) also holds.
type canceled struct {
	// Attempts is how many tries ran before cancellation.
	Attempts int
	// Err is ctx.Err() at the time the loop stopped.
	Err error
}

// Error implements error.
func (c *canceled) Error() string {
	return fmt.Sprintf("canceled after %d attempts: %v", c.Attempts, c.Err)
}

// Unwrap exposes the context error to errors.Is.
func (c *canceled) Unwrap() error { return c.Err }

// exhausted reports a retry loop that spent its whole attempt budget.
type exhausted struct {
	// Attempts is the budget that was spent.
	Attempts int
	// Err is the operation's final error.
	Err error
}

// Error implements error.
func (e *exhausted) Error() string {
	return fmt.Sprintf("failed after %d attempts: %v", e.Attempts, e.Err)
}

// Unwrap exposes the last operation error to errors.Is / errors.As.
func (e *exhausted) Unwrap() error { return e.Err }

// Do runs op until it returns nil, the policy's attempt budget is spent
// (*exhausted), or ctx is cancelled (*canceled) — cancellation interrupts
// both an op in flight (op receives ctx) and the backoff sleep between
// attempts. The attempt number passed to op counts from 1.
func Do(ctx context.Context, p Policy, op func(ctx context.Context, attempt int) error) error {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	delay := p.BaseDelay
	var lastErr error
	for attempt := 1; attempt <= p.Attempts; attempt++ {
		if attempt > 1 {
			d := delay
			if p.Jitter > 0 {
				d = time.Duration(float64(d) * (1 + p.Jitter*(2*rng.Float64()-1)))
			}
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return &canceled{Attempts: attempt - 1, Err: ctx.Err()}
			}
			if delay *= 2; delay > p.MaxDelay {
				delay = p.MaxDelay
			}
		}
		err := op(ctx, attempt)
		if err == nil {
			return nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return &canceled{Attempts: attempt, Err: ctx.Err()}
		}
	}
	return &exhausted{Attempts: p.Attempts, Err: lastErr}
}

// Attempts extracts how many tries a Do error represents (0 for nil or a
// foreign error) — callers use it to report "gave up after N".
func Attempts(err error) int {
	var c *canceled
	if errors.As(err, &c) {
		return c.Attempts
	}
	var e *exhausted
	if errors.As(err, &e) {
		return e.Attempts
	}
	return 0
}
