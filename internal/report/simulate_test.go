package report

import (
	"testing"
	"time"
)

func TestMakespanSingleWorkerIsSum(t *testing.T) {
	m := scheduleModel{TaskCosts: uniformTasks(10, time.Second)}
	got, err := m.Makespan(1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 10*time.Second {
		t.Fatalf("makespan = %v", got)
	}
}

func TestMakespanPerfectScaling(t *testing.T) {
	m := scheduleModel{TaskCosts: uniformTasks(96, time.Second)}
	t96, _ := m.Makespan(96)
	if t96 != time.Second {
		t.Fatalf("96 workers on 96 tasks = %v, want 1s", t96)
	}
}

func TestMakespanDispatchLimitsScaling(t *testing.T) {
	m := scheduleModel{
		TaskCosts: uniformTasks(1000, 10*time.Millisecond),
		Dispatch:  time.Millisecond,
	}
	sp, err := m.Speedups([]int{1, 8, 64})
	if err != nil {
		t.Fatal(err)
	}
	if sp[0] != 1 {
		t.Fatalf("speedup[0] = %v", sp[0])
	}
	if sp[1] < 4 || sp[1] > 8 {
		t.Fatalf("8-node speedup %v implausible", sp[1])
	}
	// With 1ms serialized dispatch per 10ms task, speedup saturates near 10.
	if sp[2] > 12 {
		t.Fatalf("64-node speedup %v exceeds dispatch bound", sp[2])
	}
	if sp[2] < sp[1] {
		t.Fatalf("speedup not monotone: %v", sp)
	}
}

func TestMakespanLoadImbalanceTail(t *testing.T) {
	// 9 tasks on 8 workers: someone runs two tasks.
	m := scheduleModel{TaskCosts: uniformTasks(9, time.Second)}
	got, _ := m.Makespan(8)
	if got != 2*time.Second {
		t.Fatalf("makespan = %v, want 2s", got)
	}
}

func TestMakespanStartupSerial(t *testing.T) {
	m := scheduleModel{
		TaskCosts: uniformTasks(4, time.Second),
		Startup:   3 * time.Second,
	}
	got, _ := m.Makespan(4)
	if got != 4*time.Second {
		t.Fatalf("makespan = %v, want 4s (3 startup + 1 compute)", got)
	}
}

func TestMakespanErrors(t *testing.T) {
	m := scheduleModel{TaskCosts: uniformTasks(4, time.Second)}
	if _, err := m.Makespan(0); err == nil {
		t.Fatal("0 workers accepted")
	}
	if _, err := (scheduleModel{}).Makespan(2); err == nil {
		t.Fatal("no tasks accepted")
	}
	if _, err := m.Speedups(nil); err == nil {
		t.Fatal("no node list accepted")
	}
}

func TestSpeedupsNearLinearWithoutOverheads(t *testing.T) {
	// Fig. 8's shape: plentiful equal tasks and no dispatch cost scale
	// nearly linearly.
	m := scheduleModel{TaskCosts: uniformTasks(96*12, 100*time.Millisecond)}
	nodes := []int{1, 8, 16, 32, 64, 96}
	sp, err := m.Speedups(nodes)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range nodes {
		if sp[i] < 0.95*float64(n) || sp[i] > float64(n)*1.001 {
			t.Fatalf("speedup at %d nodes = %v, want ≈%d", n, sp[i], n)
		}
	}
}
