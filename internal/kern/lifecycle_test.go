package kern

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/ipc"
)

func waitDead(t *testing.T, what string, p *ipc.Port) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if p.Dead() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("%s not retired", what)
}

// TestTaskPortRetiredWhenUnreferenced: a task port whose last holder
// dies is retired (no-senders drives the kernel service thread down),
// and a later TaskPort call mints a fresh, working one.
func TestTaskPortRetiredWhenUnreferenced(t *testing.T) {
	k := newTestKernel(t)
	victim := k.NewTask()
	holder := k.NewTask()

	tp := k.TaskPort(victim)
	name, err := holder.Space.InsertRight(tp, ipc.SendRight)
	if err != nil {
		t.Fatal(err)
	}
	if err := TaskSuspendRPC(holder, name); err != nil {
		t.Fatal(err)
	}
	if err := TaskResumeRPC(holder, name); err != nil {
		t.Fatal(err)
	}

	// Kill the holder: its space's send right was the only extant one.
	holder.Terminate()
	waitDead(t, "task port", tp)

	// The task itself is unaffected, and a fresh task port works.
	if victim.Dead() {
		t.Fatal("victim died with its task port")
	}
	tp2 := k.TaskPort(victim)
	if tp2 == tp || tp2.Dead() {
		t.Fatal("stale task port reissued")
	}
	holder2 := k.NewTask()
	name2, err := holder2.Space.InsertRight(tp2, ipc.SendRight)
	if err != nil {
		t.Fatal(err)
	}
	if err := TaskSuspendRPC(holder2, name2); err != nil {
		t.Fatal(err)
	}
	if err := TaskResumeRPC(holder2, name2); err != nil {
		t.Fatal(err)
	}
	holder2.Terminate()
	victim.Terminate()
}

// managerLoops counts the goroutines whose stack is inside, or about to
// enter, a pager manager's service loop.
func managerLoops() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "pager.(*Manager).Run(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestShutdownLeavesNoManagerLoop boots and shuts down kernels in a loop
// and checks that no default-pager loop outlives its kernel: Shutdown
// joins the loop. A loop whose goroutine had not started by Shutdown
// returns as soon as it does, so the count is retried for up to a
// second.
func TestShutdownLeavesNoManagerLoop(t *testing.T) {
	before := managerLoops()
	for i := 0; i < 1000; i++ {
		NewKernel(Config{Frames: 16, PageSize: pgsz}).Shutdown()
	}
	var left int
	for wait := time.Millisecond; wait < time.Second; wait *= 2 {
		if left = managerLoops() - before; left <= 0 {
			return
		}
		time.Sleep(wait)
	}
	t.Fatalf("%d manager loops outlived their kernels", left)
}
