package device

import (
	"errors"
	"time"
)

// RetryPolicy bounds transient-I/O retries on a device path. The ssd
// manager and the engine's HDD reads share one policy so every backend
// degrades the same way: an op gets Attempts tries total, with a simulated
// Backoff wait (scaled linearly by retry number) before each re-issue.
//
// The zero value means "one attempt, no retry"; DefaultRetryPolicy
// preserves the historical manager behavior of exactly one retry.
type RetryPolicy struct {
	Attempts int           // total attempts per operation (<= 0 means 1)
	Backoff  time.Duration // simulated wait before the k-th retry is k*Backoff
}

// DefaultRetryPolicy is the policy of the engine's disk paths and the SSD
// manager's.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{Attempts: 2, Backoff: 100 * time.Microsecond}
}

// Retryable reports whether a failed attempt number `attempt` (1-based)
// should be re-issued. Whole-device loss is never retryable: the latch is
// permanent and recovery, not persistence, is the fix.
func (rp RetryPolicy) Retryable(err error, attempt int) bool {
	if err == nil || errors.Is(err, ErrLost) {
		return false
	}
	max := rp.Attempts
	if max <= 0 {
		max = 1
	}
	return attempt < max
}

// Delay returns the simulated backoff before re-issuing after `attempt`
// failed tries. Linear rather than exponential: the sim models firmware
// retry pacing, not congestion control, and linear keeps virtual-time
// arithmetic obvious in traces.
func (rp RetryPolicy) Delay(attempt int) time.Duration {
	if rp.Backoff <= 0 || attempt <= 0 {
		return 0
	}
	return time.Duration(attempt) * rp.Backoff
}
