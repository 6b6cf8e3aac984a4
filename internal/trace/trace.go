// Package trace names the protocol-level steps of a transaction's life
// (arrival, routing, lock waits, aborts, authentication, commit). It holds
// only the Kind enum and its names. A step is recorded as an obs.Event of
// Kind obs.TraceDetail, its step in Event.Trace, and reaches whatever
// obs.DetailObserver is subscribed to the bus.
package trace

import "fmt"

// Kind classifies protocol events.
type Kind uint8

// Event kinds, in rough lifecycle order.
const (
	Arrive Kind = iota + 1
	RouteLocal
	RouteShip
	SetupDone
	LockRequest
	LockGranted
	LockWaitBegin
	DeadlockAbort
	CommitLocal
	UpdatePropagated
	UpdateApplied
	UpdateAcked
	AuthRequest
	AuthSeized
	AuthNACK
	AuthACK
	CommitCentral
	CrossAbortLocal
	CrossAbortCentral
	Rerun
	ReplyDelivered
)

var kindNames = map[Kind]string{
	Arrive:            "arrive",
	RouteLocal:        "route-local",
	RouteShip:         "route-ship",
	SetupDone:         "setup-done",
	LockRequest:       "lock-request",
	LockGranted:       "lock-granted",
	LockWaitBegin:     "lock-wait",
	DeadlockAbort:     "deadlock-abort",
	CommitLocal:       "commit-local",
	UpdatePropagated:  "update-propagated",
	UpdateApplied:     "update-applied",
	UpdateAcked:       "update-acked",
	AuthRequest:       "auth-request",
	AuthSeized:        "auth-seized",
	AuthNACK:          "auth-nack",
	AuthACK:           "auth-ack",
	CommitCentral:     "commit-central",
	CrossAbortLocal:   "cross-abort-local",
	CrossAbortCentral: "cross-abort-central",
	Rerun:             "rerun",
	ReplyDelivered:    "reply-delivered",
}

// String returns the event kind's name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}
