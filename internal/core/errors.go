package core

import "errors"

// Sentinel errors of the identification pipeline. They are wrapped (with
// %w) where extra context helps, so match with errors.Is rather than
// string comparison. The dominantlink facade re-exports the identification
// errors (ErrEmptyTrace, ErrNoLosses, ErrNonFinite, ErrUnknownModel).
var (
	// ErrEmptyTrace reports a trace with no observations at all.
	ErrEmptyTrace = errors.New("core: empty trace")

	// ErrNoLosses reports a trace without a single lost probe: the
	// virtual-queuing-delay distribution P(V=m | loss) — and with it the
	// dominant-congested-link question — is undefined without losses
	// (§III-A). Callers identifying many segments should treat this as
	// "segment unusable", not as a failure of the pipeline.
	ErrNoLosses = errors.New("core: trace has no losses; dominant congested link is undefined without losses (§III-A)")

	// ErrNonFinite reports a window the pipeline cannot identify soundly
	// because of non-finite numbers: a delivered delay that is NaN or
	// ±Inf (one NaN would make the discretization range NaN and encode
	// every delivered probe as one symbol), or EM restarts that all fitted
	// a PMF with a NaN or -Inf log-likelihood.
	ErrNonFinite = errors.New("core: non-finite delay or log-likelihood")

	// ErrUnknownModel reports a ModelKind other than MMHD or HMM.
	ErrUnknownModel = errors.New("core: unknown model kind")

	// ErrWindowDeadline reports a streamed window whose identification did
	// not finish within WindowConfig.Deadline. The window's result carries
	// it (wrapped) instead of an Identification; the stream itself keeps
	// going — the deadline exists precisely so one pathological window
	// cannot stall the session behind it.
	ErrWindowDeadline = errors.New("core: window identification deadline exceeded")

	// ErrWindowShed reports a streamed window that admission control
	// refused to identify (WindowConfig.Admit returned an error): the
	// serving layer chose to shed the window's work rather than queue it
	// behind an overloaded engine. The result has Shed set and wraps this
	// sentinel, so consumers can tell deliberate load shedding from
	// identification failures.
	ErrWindowShed = errors.New("core: window shed by admission control")

	// ErrPipelinePanic reports a panic recovered inside a streaming
	// pipeline goroutine — a panicking observation source or a fault in
	// the window path outside the engine (which contains its own panics).
	// It surfaces as a WindowResult error, terminal when the source itself
	// panicked, so a supervising layer can tell "the pipeline blew up and
	// was contained" from an ordinary identification failure and decide to
	// restart the stream.
	ErrPipelinePanic = errors.New("core: pipeline panic recovered")
)
