package hybrid

// The conservation/invariant self-check, wired onto the observer bus: when
// Config.SelfCheck is set, an invariantObserver subscribes and audits the
// engine on every SelfCheck event (periodic during the run, once at the
// end).

import (
	"fmt"

	"hybriddb/internal/hybrid/obs"
)

// invariantObserver runs checkInvariants on each SelfCheck bus event.
type invariantObserver struct{ e *Engine }

// OnEvent implements obs.Observer.
func (o invariantObserver) OnEvent(ev obs.Event) {
	if ev.Kind == obs.SelfCheck {
		o.e.checkInvariants()
	}
}

// checkInvariants verifies cross-component consistency; enabled by
// Config.SelfCheck. It panics on violation (a simulator bug, never a
// workload condition).
func (e *Engine) checkInvariants() {
	var present uint64
	for _, ls := range e.sites {
		present += ls.check()
		// One owner per run: a shipped transaction holds no run at home,
		// only its parked input, from the Ship send to the Reply's delivery.
		if sent := ls.counts.Shipped() - ls.counts[obs.TxnReply]; uint64(ls.away()) != sent {
			panic(fmt.Sprintf("hybrid: site %d parks %d shipped transactions, %d are unanswered",
				ls.idx, ls.away(), sent))
		}
	}
	present += e.central.check()
	generated, completed, shipping, replying := e.flow()
	total := completed + present + shipping + replying
	if total != generated {
		panic(fmt.Sprintf("hybrid: conservation violated: generated=%d accounted=%d "+
			"(completed=%d present=%d shipping=%d replying=%d)",
			generated, total, completed, present, shipping, replying))
	}
}

// check audits one partition's lock table and resident-transaction
// accounting and returns the transactions present.
func (p *partition) check() uint64 {
	p.locks.CheckInvariants()
	if p.inSystem < 0 || p.running.Len() != p.inSystem {
		panic(fmt.Sprintf("hybrid: partition %d running=%d inSystem=%d", p.idx, p.running.Len(), p.inSystem))
	}
	return uint64(p.inSystem)
}
