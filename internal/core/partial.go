package core

import "errors"

// SegmentStatus is one per-segment elimination outcome: what the attack
// knew about segment (Round, Segment) when the elimination stopped. A
// PartialResult lists one per segment of the failing round pass; every
// Outcome carries its own.
type SegmentStatus struct {
	Round   int `json:"round"`
	Segment int `json:"segment"`
	// Converged reports whether the elimination pinned a single line.
	Converged bool `json:"converged"`
	// Line is the converged table line (-1 when not converged or not
	// attempted).
	Line int `json:"line"`
	// Observations is the elimination's observation count (summed over
	// restarts).
	Observations uint64 `json:"observations"`
	// Restarts / Retries are the recovery actions the segment consumed:
	// threshold-relaxing restarts (Config.MaxRestarts; direct targets
	// only) and transient channel failures recovered under the retry
	// policy.
	Restarts int    `json:"restarts,omitempty"`
	Retries  uint64 `json:"retries,omitempty"`
	// Confidence is the converged survivor's presence-ratio separation
	// from the strongest eliminated line, in [0,1].
	Confidence float64 `json:"confidence,omitempty"`
}

// PartialResult is the graceful-degradation report of an attack that
// did not fully recover the key: instead of collapsing everything the
// run learned into ErrNoConvergence, it preserves how far the attack
// got — fully-resolved round keys, per-segment status of the failing
// pass, and a machine-readable reason.
type PartialResult struct {
	// Cipher labels the victim ("GIFT-64", "GIFT-128").
	Cipher string `json:"cipher"`
	// ResolvedRounds is how many round keys were fully recovered before
	// the failure (each pins 32 master-key bits for GIFT-64, 64 for
	// GIFT-128).
	ResolvedRounds int `json:"resolved_rounds"`
	// Segments holds the failing round pass's per-segment statuses, in
	// segment order; segments the pass never reached appear with
	// Line == -1 and zero observations.
	Segments []SegmentStatus `json:"segments"`
	// Encryptions is the total victim encryptions the run consumed.
	Encryptions uint64 `json:"encryptions"`
	// Reason classifies the stop: "no-convergence", "budget-exceeded",
	// "sim-deadline", "channel-transient" (retries exhausted on a
	// transient fault) or "error".
	Reason string `json:"reason"`
}

// Converged returns how many segments of the failing pass converged.
func (p *PartialResult) Converged() int {
	n := 0
	for _, s := range p.Segments {
		if s.Converged {
			n++
		}
	}
	return n
}

// Confidence returns the mean confidence over the failing pass's
// converged segments (0 when none converged).
func (p *PartialResult) Confidence() float64 {
	var sum float64
	n := 0
	for _, s := range p.Segments {
		if s.Converged {
			sum += s.Confidence
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Reason classifies an attack error into the stable PartialResult
// vocabulary ("budget-exceeded", "sim-deadline", "no-convergence",
// "channel-transient", "error"; "" for nil) so campaign layers report
// the same taxonomy for full errors as for partial results.
func Reason(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrBudgetExceeded):
		return "budget-exceeded"
	case errors.Is(err, ErrSimDeadline):
		return "sim-deadline"
	case errors.Is(err, ErrNoConvergence):
		return "no-convergence"
	case isTransient(err):
		return "channel-transient"
	default:
		return "error"
	}
}
