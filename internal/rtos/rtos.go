// Package rtos models the preemptive round-robin task scheduler the
// GRINCH paper runs on its single-processor SoC ("RTOS … uses a quantum
// time of 10 milliseconds"). Tasks are simulation processes that consume
// CPU through Exec; when a task exhausts its quantum it is preempted at
// the next charge boundary and the next ready task runs after a context
// switch. A single runnable task keeps the CPU without paying switch
// costs.
//
// The scheduler is what turns cipher rounds into a probing race on a
// shared core: the attacker task only observes the cache when the victim
// is preempted, so the earliest probe-able round is quantum·f divided by
// the victim's cycles per round (paper Table II).
package rtos

import (
	"fmt"

	"grinch/internal/sim"
)

// Config describes the scheduler.
type Config struct {
	// Quantum is the time slice per task (the paper uses 10 ms).
	Quantum sim.Time
	// CtxSwitchCycles is the CPU cost of a context switch.
	CtxSwitchCycles uint64
}

// Scheduler is a single-core round-robin scheduler.
type Scheduler struct {
	k       *sim.Kernel
	clock   sim.Clock
	cfg     Config
	current *Task
	ready   []*Task
	// switches counts completed context switches.
	switches uint64
}

// New creates a scheduler for one core in clock domain clock.
func New(k *sim.Kernel, clock sim.Clock, cfg Config) *Scheduler {
	if cfg.Quantum == 0 {
		panic("rtos: zero quantum")
	}
	return &Scheduler{k: k, clock: clock, cfg: cfg}
}

// Clock returns the core's clock.
func (s *Scheduler) Clock() sim.Clock { return s.clock }

// Switches returns the number of context switches performed.
func (s *Scheduler) Switches() uint64 { return s.switches }

// Task is a schedulable thread of execution. Tasks must consume CPU only
// through Exec/Sleep/YieldSlice; parking the underlying process directly
// would hold the core without the scheduler knowing.
type Task struct {
	name      string
	sched     *Scheduler
	proc      *sim.Proc
	grant     *sim.Queue[struct{}]
	onGrant   func()   // t.grantSlice, bound once
	granted   bool     // the pending grant event has fired for us
	sliceEnd  sim.Time // absolute time the current slice expires
	queued    bool
	runtime   sim.Time // accumulated CPU time
	preempted uint64
}

// Spawn creates a task whose body starts running when the scheduler
// first grants it the CPU.
func (s *Scheduler) Spawn(name string, body func(t *Task)) *Task {
	t := &Task{name: name, sched: s}
	t.grant = sim.NewQueue[struct{}](s.k)
	t.onGrant = t.grantSlice
	t.proc = s.k.Spawn(name, func(p *sim.Proc) {
		t.enqueue()
		t.waitTurn()
		body(t)
		t.release()
	})
	return t
}

// Name returns the task name.
func (t *Task) Name() string { return t.name }

// Runtime returns the CPU time the task has consumed.
func (t *Task) Runtime() sim.Time { return t.runtime }

// Preemptions returns how many times the task lost the CPU to quantum
// expiry.
func (t *Task) Preemptions() uint64 { return t.preempted }

// Now returns the current virtual time.
func (t *Task) Now() sim.Time { return t.proc.Now() }

// Proc exposes the underlying simulation process (for use with queues).
func (t *Task) Proc() *sim.Proc { return t.proc }

// enqueue marks t ready.
func (t *Task) enqueue() {
	if t.queued {
		return
	}
	t.queued = true
	t.sched.ready = append(t.sched.ready, t)
	t.sched.kick()
}

// kick grants the CPU to the head of the ready queue if the core is
// idle. The grant lands after the context-switch delay.
func (s *Scheduler) kick() {
	if s.current != nil || len(s.ready) == 0 {
		return
	}
	next := s.ready[0]
	s.ready = append(s.ready[:0], s.ready[1:]...)
	next.queued = false
	s.current = next
	s.switches++
	s.k.Schedule(s.clock.Cycles(s.cfg.CtxSwitchCycles), next.onGrant)
}

// grantSlice completes a context switch to t by starting its slice.
func (t *Task) grantSlice() {
	s := t.sched
	if s.current != t {
		return // task released the CPU before the switch completed
	}
	t.sliceEnd = s.k.Now() + s.cfg.Quantum
	t.granted = true
	t.grant.Send(struct{}{})
}

// running reports whether t currently owns the core with a live slice.
func (t *Task) running() bool {
	return t.sched.current == t && t.granted
}

// waitTurn blocks until t owns the core with slice time remaining.
func (t *Task) waitTurn() {
	s := t.sched
	if t.running() && t.Now() >= t.sliceEnd {
		// Slice expired. Rotate only if someone else is waiting;
		// a lone task keeps the core with a fresh slice.
		if len(s.ready) == 0 {
			t.sliceEnd = t.Now() + s.cfg.Quantum
		} else {
			t.preempted++
			t.granted = false
			s.current = nil
			t.enqueue()
		}
	}
	for !t.running() {
		t.grant.Recv(t.proc)
	}
}

// release gives up the CPU entirely (task blocking or exiting).
func (t *Task) release() {
	s := t.sched
	if s.current == t {
		t.granted = false
		s.current = nil
		s.kick()
	}
}

// Exec consumes n CPU cycles, spanning preemptions as needed: execution
// pauses while other tasks hold the core and resumes on the task's next
// slice.
func (t *Task) Exec(n uint64) {
	s := t.sched
	for n > 0 {
		t.waitTurn()
		avail := s.clock.CyclesAt(t.sliceEnd - t.Now())
		if avail == 0 {
			// Less than one whole cycle left: treat the slice as over.
			t.sliceEnd = t.Now()
			continue
		}
		run := n
		if run > avail {
			run = avail
		}
		d := s.clock.Cycles(run)
		t.proc.Wait(d)
		t.runtime += d
		n -= run
	}
}

// Sleep blocks the task for d of virtual time, releasing the CPU. On
// wake the task re-queues and resumes when the scheduler reaches it (so
// the effective delay may exceed d under contention).
func (t *Task) Sleep(d sim.Time) {
	t.release()
	t.proc.Wait(d)
	t.enqueue()
	t.waitTurn()
}

// YieldSlice voluntarily ends the task's current slice (cooperative
// yield), letting other ready tasks run before t continues.
func (t *Task) YieldSlice() {
	t.sliceEnd = t.Now()
	t.waitTurn()
}

// Recv blocks task t on a simulation queue, releasing the CPU while
// waiting and re-acquiring it (through the scheduler) once a value
// arrives. A value that is already buffered is taken without giving up
// the CPU. Tasks must use this instead of Queue.Recv directly, which
// would hold the core while blocked.
func Recv[T any](t *Task, q *sim.Queue[T]) T {
	if v, ok := q.TryRecv(); ok {
		return v
	}
	t.release()
	v := q.Recv(t.proc)
	t.enqueue()
	t.waitTurn()
	return v
}

// String describes the scheduler state (for debugging traces).
func (s *Scheduler) String() string {
	cur := "idle"
	if s.current != nil {
		cur = s.current.name
	}
	return fmt.Sprintf("rtos{current=%s ready=%d switches=%d}", cur, len(s.ready), s.switches)
}
