package report

import (
	"container/heap"
	"fmt"
	"time"
)

// scheduleModel parameterizes the discrete-event extrapolation of the
// master–worker run to arbitrary node counts. It captures the three
// sublinearity sources the paper's Fig. 8 exhibits: fixed serial startup
// (data distribution), per-task dispatch latency through the single
// master, and end-of-queue load imbalance.
type scheduleModel struct {
	// TaskCosts holds the compute time of every task on one worker node.
	TaskCosts []time.Duration
	// Dispatch is the master-side serialized cost to hand out one task
	// (message encode + wire time); it bounds strong scaling.
	Dispatch time.Duration
	// Startup is the serial setup time before any task runs (broadcast of
	// brain data to the workers).
	Startup time.Duration
	// PerNode is additional setup time per participating worker (the
	// master distributes data to each node in turn), making very large
	// clusters pay a visible startup cost on short analyses (the shape of
	// the paper's Table 4).
	PerNode time.Duration
}

// workerHeap orders workers by the time they become free.
type workerHeap []time.Duration

func (h workerHeap) Len() int           { return len(h) }
func (h workerHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h workerHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *workerHeap) Push(x any)        { *h = append(*h, x.(time.Duration)) }
func (h *workerHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// Makespan simulates the dynamic task queue on n workers and returns the
// elapsed wall time. Tasks are issued in order; each dispatch serializes
// through the master.
func (m scheduleModel) Makespan(n int) (time.Duration, error) {
	if n <= 0 {
		return 0, fmt.Errorf("report: simulate with %d workers", n)
	}
	if len(m.TaskCosts) == 0 {
		return 0, fmt.Errorf("report: no tasks to simulate")
	}
	startup := m.Startup + time.Duration(n)*m.PerNode
	free := make(workerHeap, n)
	for i := range free {
		free[i] = startup
	}
	heap.Init(&free)
	masterFree := startup
	var finish time.Duration
	for _, cost := range m.TaskCosts {
		w := heap.Pop(&free).(time.Duration)
		// The dispatch serializes through the master: it can only begin
		// when both the master and the worker are available.
		start := maxDur(w, masterFree)
		masterFree = start + m.Dispatch
		end := start + m.Dispatch + cost
		if end > finish {
			finish = end
		}
		heap.Push(&free, end)
	}
	return finish, nil
}

// Speedups evaluates Makespan over the node counts and normalizes to the
// first entry, producing the series of Fig. 8.
func (m scheduleModel) Speedups(nodes []int) ([]float64, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("report: no node counts")
	}
	base, err := m.Makespan(nodes[0])
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(nodes))
	for i, n := range nodes {
		t, err := m.Makespan(n)
		if err != nil {
			return nil, err
		}
		out[i] = float64(base) / float64(t)
	}
	return out, nil
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// uniformTasks builds n equal task costs, the common case of FCMA's
// fixed-size voxel partitioning.
func uniformTasks(n int, cost time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = cost
	}
	return out
}
