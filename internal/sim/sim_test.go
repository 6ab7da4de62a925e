package sim

import (
	"testing"
)

func TestScheduleOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.Schedule(30, func() { got = append(got, 3) })
	k.Schedule(10, func() { got = append(got, 1) })
	k.Schedule(20, func() { got = append(got, 2) })
	k.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired in order %v", got)
	}
	if k.Now() != 30 {
		t.Fatalf("final time %v, want 30ps", k.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5, func() { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events reordered: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	e := k.Schedule(10, func() { fired = true })
	k.Cancel(e)
	k.Cancel(e) // double-cancel is a no-op
	k.Cancel(nil)
	k.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelFromEarlierEvent(t *testing.T) {
	k := NewKernel()
	fired := false
	e := k.Schedule(20, func() { fired = true })
	k.Schedule(10, func() { k.Cancel(e) })
	k.Run()
	if fired {
		t.Fatal("event cancelled at t=10 still fired at t=20")
	}
}

func TestSchedulingIntoPastPanics(t *testing.T) {
	k := NewKernel()
	k.Schedule(100, func() {})
	k.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.At(50, func() {})
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	var fired []Time
	for _, d := range []Time{10, 20, 30, 40} {
		d := d
		k.Schedule(d, func() { fired = append(fired, d) })
	}
	k.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(25) fired %v", fired)
	}
	if k.Now() != 25 {
		t.Fatalf("clock at %v after RunUntil(25)", k.Now())
	}
	k.Run()
	if len(fired) != 4 {
		t.Fatalf("remaining events lost: %v", fired)
	}
}

func TestNestedScheduling(t *testing.T) {
	k := NewKernel()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			k.Schedule(1, rec)
		}
	}
	k.Schedule(1, rec)
	k.Run()
	if depth != 100 {
		t.Fatalf("depth = %d", depth)
	}
	if k.Now() != 100 {
		t.Fatalf("time = %v", k.Now())
	}
}

func TestProcWait(t *testing.T) {
	k := NewKernel()
	var marks []Time
	k.Spawn("p", func(p *Proc) {
		marks = append(marks, p.Now())
		p.Wait(100)
		marks = append(marks, p.Now())
		p.Wait(50)
		marks = append(marks, p.Now())
	})
	k.Run()
	want := []Time{0, 100, 150}
	if len(marks) != 3 || marks[0] != want[0] || marks[1] != want[1] || marks[2] != want[2] {
		t.Fatalf("marks = %v, want %v", marks, want)
	}
}

func TestProcWaitUntil(t *testing.T) {
	k := NewKernel()
	var at Time
	k.Spawn("p", func(p *Proc) {
		p.WaitUntil(500)
		p.WaitUntil(100) // already passed: no-op
		at = p.Now()
	})
	k.Run()
	if at != 500 {
		t.Fatalf("proc resumed at %v", at)
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var log []string
		k.Spawn("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				log = append(log, "a")
				p.Wait(10)
			}
		})
		k.Spawn("b", func(p *Proc) {
			for i := 0; i < 3; i++ {
				log = append(log, "b")
				p.Wait(10)
			}
		})
		k.Run()
		return log
	}
	first := run()
	for i := 0; i < 10; i++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("nondeterministic length")
		}
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("nondeterministic interleaving: %v vs %v", first, again)
			}
		}
	}
	if len(first) != 6 {
		t.Fatalf("log = %v", first)
	}
}

func TestQueueSendRecv(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k)
	var got []int
	k.Spawn("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Recv(p))
		}
	})
	k.Spawn("send", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Wait(10)
			q.Send(i)
		}
	})
	k.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestQueueRecvBeforeSend(t *testing.T) {
	k := NewKernel()
	q := NewQueue[string](k)
	var at Time
	var v string
	k.Spawn("recv", func(p *Proc) {
		v = q.Recv(p)
		at = p.Now()
	})
	k.Schedule(250, func() { q.Send("hello") })
	k.Run()
	if v != "hello" || at != 250 {
		t.Fatalf("v=%q at=%v", v, at)
	}
}

func TestQueueMultipleWaitersFIFO(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k)
	var order []string
	spawnRecv := func(name string, delay Time) {
		k.Spawn(name, func(p *Proc) {
			p.Wait(delay)
			q.Recv(p)
			order = append(order, name)
		})
	}
	spawnRecv("first", 1)
	spawnRecv("second", 2)
	k.Schedule(100, func() { q.Send(1) })
	k.Schedule(200, func() { q.Send(2) })
	k.Run()
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("waiters served in order %v", order)
	}
}

func TestQueueTryRecv(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k)
	if _, ok := q.TryRecv(); ok {
		t.Fatal("TryRecv on empty queue returned ok")
	}
	q.Send(7)
	if q.Len() != 1 {
		t.Fatalf("Len = %d", q.Len())
	}
	v, ok := q.TryRecv()
	if !ok || v != 7 {
		t.Fatalf("TryRecv = %v, %v", v, ok)
	}
}

func TestStopTerminatesParkedProcs(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k)
	reached := false
	k.Spawn("stuck", func(p *Proc) {
		q.Recv(p) // never satisfied
		reached = true
	})
	k.Schedule(10, func() { k.Stop() })
	k.Run()
	if reached {
		t.Fatal("process ran past a never-satisfied Recv")
	}
}

func TestDeadlockedQueueQuiesces(t *testing.T) {
	// A process parked on an empty queue must not keep Run spinning:
	// Run returns when the event heap drains.
	k := NewKernel()
	q := NewQueue[int](k)
	k.Spawn("stuck", func(p *Proc) { q.Recv(p) })
	done := make(chan struct{})
	go func() {
		k.Run()
		close(done)
	}()
	<-done // would hang forever if Run failed to quiesce
}

func TestClockMHz(t *testing.T) {
	cases := []struct {
		mhz    uint64
		period Time
	}{
		{10, 100_000}, // 100 ns
		{25, 40_000},  // 40 ns
		{50, 20_000},  // 20 ns
		{1000, 1_000}, // 1 ns
	}
	for _, c := range cases {
		clk := ClockMHz(c.mhz)
		if clk.Period != c.period {
			t.Errorf("ClockMHz(%d).Period = %v, want %v", c.mhz, clk.Period, c.period)
		}
	}
	if got := ClockMHz(50).Cycles(66_000); got != Time(66_000)*20_000 {
		t.Errorf("Cycles(66000) = %v", got)
	}
	if got := ClockMHz(10).CyclesAt(10 * Millisecond); got != 100_000 {
		t.Errorf("CyclesAt(10ms) = %d cycles, want 100000", got)
	}
}

func TestClockMHzRejectsInexact(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 7 MHz")
		}
	}()
	ClockMHz(7)
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ps"},
		{2 * Nanosecond, "2.000ns"},
		{3 * Microsecond, "3.000µs"},
		{10 * Millisecond, "10.000ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", uint64(c.t), got, c.want)
		}
	}
}

func TestSpawnAfterTimeAdvanced(t *testing.T) {
	k := NewKernel()
	var start Time
	k.Schedule(100, func() {
		k.Spawn("late", func(p *Proc) {
			start = p.Now()
		})
	})
	k.Run()
	if start != 100 {
		t.Fatalf("late-spawned proc started at %v", start)
	}
}

// TestKillIsSynchronous checks that shutting a kernel down unwinds every
// parked process before Run/RunUntil returns: each body's deferred
// cleanup has run, so no process goroutine outlives the simulation.
func TestKillIsSynchronous(t *testing.T) {
	cases := []struct {
		name string
		run  func(k *Kernel)
		stop bool
	}{
		{"quiesce/Run", (*Kernel).Run, false},
		{"stop/Run", (*Kernel).Run, true},
		{"stop/RunUntil", func(k *Kernel) { k.RunUntil(500) }, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := NewKernel()
			q := NewQueue[int](k)
			var recvDone, waitDone bool
			k.Spawn("blocked", func(p *Proc) {
				defer func() { recvDone = true }()
				q.Recv(p) // never satisfied
			})
			if c.stop {
				k.Spawn("parked", func(p *Proc) {
					defer func() { waitDone = true }()
					p.Wait(1000)
				})
				k.Schedule(10, k.Stop)
			} else {
				waitDone = true
			}
			c.run(k)
			if !recvDone || !waitDone {
				t.Fatalf("cleanup after return: queue-blocked %v, parked %v", recvDone, waitDone)
			}
		})
	}
}

// TestKillSurvivesWaitInCleanup: a deferred cleanup that tries to wait
// while its process is being torn down must not hand control back to
// the (already stopped) kernel.
func TestKillSurvivesWaitInCleanup(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k)
	cleaned := false
	k.Spawn("stuck", func(p *Proc) {
		defer func() { cleaned = true }()
		defer p.Wait(1)
		q.Recv(p)
	})
	k.Run()
	if !cleaned {
		t.Fatal("cleanup did not finish before Run returned")
	}
}

// BenchmarkProcWait measures the kernel↔process handoff: one process
// waits and sends, the other receives, so every iteration is two
// handoffs (the waiter's wake-up and the receiver's).
func BenchmarkProcWait(b *testing.B) {
	k := NewKernel()
	q := NewQueue[int](k)
	k.Spawn("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Wait(1)
			q.Send(i)
		}
	})
	k.Spawn("pong", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Recv(p)
		}
	})
	k.RunUntil(0) // start both goroutines outside the timed region
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/handoff")
}
