package cocoa

import (
	"cocoa/internal/geom"
	"cocoa/internal/obs"
	"cocoa/internal/sim"
)

// Event is one observable occurrence in a run. Observers receive every
// event in virtual-time order; the event log in internal/eventlog
// serializes them to JSONL for offline analysis.
type Event struct {
	TimeS float64   `json:"timeS"`
	Kind  EventKind `json:"kind"`
	Robot int       `json:"robot"`
	// Pos is the event's associated position: the fix for EventFix, the
	// advertised coordinates for EventBeaconSent.
	Pos geom.Vec2 `json:"pos"`
	// ErrM is the localization error at fix time (EventFix only).
	ErrM float64 `json:"errM,omitempty"`
	// Beacons is the count applied to the fix (EventFix) or received in
	// the closing window (EventWindowEnd).
	Beacons int `json:"beacons,omitempty"`
}

// EventKind enumerates observable occurrences.
type EventKind string

// Event kinds.
const (
	EventRunStart    EventKind = "run-start"
	EventRunEnd      EventKind = "run-end"
	EventWindowStart EventKind = "window-start"
	EventWindowEnd   EventKind = "window-end"
	EventBeaconSent  EventKind = "beacon-sent"
	EventFix         EventKind = "fix"
	EventFixMissed   EventKind = "fix-missed"
	EventSleep       EventKind = "sleep"
	EventWake        EventKind = "wake"
	EventSyncRecv    EventKind = "sync-received"
	EventFailure     EventKind = "failure"
	EventCrash       EventKind = "crash"
	EventRecover     EventKind = "recover"
	EventCheckpoint  EventKind = "checkpoint"
)

// Observer consumes run events. Implementations must be fast; they run
// inline with the simulation.
type Observer func(Event)

// Observe registers an observer before Run. Multiple observers are called
// in registration order.
func (t *Team) Observe(o Observer) {
	t.observers = append(t.observers, o)
}

// emit delivers an event to all observers: the one place a run reports
// what happened (a trace is one more observer, see traceObserver). The
// zero-observer case is the common one and costs only a length check.
func (t *Team) emit(kind EventKind, robot int, pos geom.Vec2, errM float64, beacons int) {
	if len(t.observers) == 0 {
		return
	}
	e := Event{
		TimeS:   float64(t.sim.Now()),
		Kind:    kind,
		Robot:   robot,
		Pos:     pos,
		ErrM:    errM,
		Beacons: beacons,
	}
	for _, o := range t.observers {
		o(e)
	}
}

// emitSimple is emit without position or measurements.
func (t *Team) emitSimple(kind EventKind, robot int) {
	t.emit(kind, robot, geom.Vec2{}, 0, 0)
}

// traceObserver records the event stream into tr as the run's span
// timeline (Config.Trace). What an event does not carry it reads from the
// team at emission time: the sender's equipment, the beacon queues, and
// the checkpoint tick and label.
func (t *Team) traceObserver(tr *obs.Trace) Observer {
	return func(e Event) {
		switch e.Kind {
		case EventRunStart:
			tr.SetThreadName(0, "event-loop")
			tr.Begin(0, "run", e.TimeS, map[string]any{
				"seed": t.cfg.Seed, "robots": t.cfg.NumRobots, "duration_s": int(t.cfg.DurationS),
			})
		case EventWindowStart:
			tr.Begin(0, "sampling-window", e.TimeS, nil)
		case EventBeaconSent:
			tr.Instant(0, "mac-frame", e.TimeS, map[string]any{
				"robot": e.Robot, "secondary": !t.robots[e.Robot].equipped,
			})
		case EventCheckpoint:
			tr.Instant(0, "checkpoint", e.TimeS, map[string]any{"tick": t.ticks, "label": t.ckptLabel})
		case EventWindowEnd, EventRunEnd:
			// Both precede a flush: a belief-update per queue it applies, then
			// close the window or, at run end, every open span.
			for _, r := range t.robots {
				if len(r.pending) > 0 {
					tr.Complete(1+r.id, "belief-update", e.TimeS, 0, map[string]any{"beacons": len(r.pending)})
				}
			}
			if e.Kind == EventRunEnd {
				tr.CloseOpen(e.TimeS)
			} else {
				tr.End(0, e.TimeS)
			}
		}
	}
}

// failRobot powers a robot off mid-run: it stops beaconing, forwarding,
// and moving (a dead robot in the rubble). Localization state freezes. The
// medium detaches the robot entirely: a dead radio is not a receiver, so
// the MAC neither visits nor counts it for the rest of the run.
func (t *Team) failRobot(now sim.Time, r *robot) {
	if r.failed {
		return
	}
	r.failed = true
	r.way.HoldUntil(now, t.cfg.DurationS+1)
	r.nic.PowerOff()
	t.med.Detach(r.id)
	t.emitSimple(EventFailure, r.id)
}

// crashRobot starts a fault-injection outage: the radio powers off (no
// beacons, no forwarding, no energy draw), but unlike failRobot the robot
// keeps driving — its odometry drifts uncorrected until recovery.
func (t *Team) crashRobot(r *robot) {
	if r.failed || r.crashed {
		return
	}
	r.crashed = true
	t.crashes++
	telCrashes.Inc()
	r.nic.PowerOff()
	// Compaction: a crashed radio is detached from the medium so surviving
	// robots' frames stop paying (and stop drawing per-receiver noise for)
	// a station that cannot receive. Recovery re-attaches it.
	t.med.Detach(r.id)
	t.emitSimple(EventCrash, r.id)
}

// recoverRobot ends an outage: the radio comes back awake and the robot
// stays up until the next window end re-arms its sleep schedule (it never
// un-learned the schedule; its clock just kept drifting while down).
func (t *Team) recoverRobot(r *robot) {
	if r.failed || !r.crashed {
		return
	}
	r.crashed = false
	telRecoveries.Inc()
	t.med.Attach(r.id, r.nic)
	r.nic.Wake()
	t.emitSimple(EventRecover, r.id)
}
