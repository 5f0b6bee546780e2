package rpc

import (
	"errors"
	"math/rand"
	"time"
)

// RetryPolicy bounds how a client retries transient transport failures
// (dial errors, deadline timeouts, connection resets, torn frames)
// against one benefactor before giving up on that replica.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget per replica (first try
	// included). 0 means DefaultMaxAttempts; 1 disables retries.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff: the sleep before retry n is
	// BaseDelay<<(n-1), jittered, capped at MaxDelay. Zeros mean defaults.
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

// Defaults for RetryPolicy fields left zero.
const (
	DefaultMaxAttempts = 3
	DefaultBaseDelay   = 10 * time.Millisecond
	DefaultMaxDelay    = 500 * time.Millisecond
)

func (r RetryPolicy) withDefaults() RetryPolicy {
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = DefaultMaxAttempts
	}
	if r.BaseDelay <= 0 {
		r.BaseDelay = DefaultBaseDelay
	}
	if r.MaxDelay <= 0 {
		r.MaxDelay = DefaultMaxDelay
	}
	return r
}

// backoff returns the sleep before retry attempt n (n >= 1): exponential in
// n with full jitter (a uniform draw from (0, cap]), so a herd of clients
// retrying against a recovering benefactor spreads out instead of
// synchronizing.
func (r RetryPolicy) backoff(n int) time.Duration {
	d := r.BaseDelay << uint(n-1)
	if d <= 0 || d > r.MaxDelay {
		d = r.MaxDelay
	}
	return time.Duration(rand.Int63n(int64(d))) + 1
}

// transientError marks a transport-level failure: the RPC never completed a
// request/response round trip, so the operation may be retried (on the same
// replica) or failed over (to another replica) without risking duplicate
// semantic effects beyond idempotent chunk reads/writes.
type transientError struct{ err error }

func (e *transientError) Error() string { return "transient: " + e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// transient wraps err as retryable; nil stays nil.
func transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err is a transport-level failure worth
// retrying, as opposed to a semantic error from a completed RPC (no such
// chunk, out of space, ...) that retrying cannot fix.
func IsTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}
