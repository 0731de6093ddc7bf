package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// FSConfig sets per-operation fault probabilities for a chaos-wrapped FS.
// Each Write/Sync/Rename rolls once against the cumulative rates; the
// remainder is a clean operation, exactly like mpi.ChaosConfig.
type FSConfig struct {
	// TornWrite writes a random strict prefix of the buffer and then fails
	// the write, simulating power loss mid-write.
	TornWrite float64
	// ENOSPC fails the write without writing anything, simulating a full
	// disk.
	ENOSPC float64
	// SlowSync holds an fsync for a random duration up to MaxDelay.
	SlowSync float64
	// RenameFail fails a rename, leaving the temp file behind.
	RenameFail float64
	// MaxDelay bounds injected fsync delays (default 2ms).
	MaxDelay time.Duration
}

// Config is one deterministic fault plan: a seed and the filesystem fault
// rates.
type Config struct {
	// Seed makes every fault decision reproducible. The same seed and the
	// same operation sequence replay the same faults.
	Seed int64
	// FS faults are injected into filesystems wrapped with Plan.FS.
	FS FSConfig
}

func (c Config) validate() error {
	for _, r := range []float64{c.FS.TornWrite, c.FS.ENOSPC, c.FS.RenameFail, c.FS.SlowSync} {
		if r < 0 || r > 1 {
			return fmt.Errorf("chaos: fault rate %v out of [0,1]", r)
		}
	}
	if sum := c.FS.TornWrite + c.FS.ENOSPC; sum > 1 {
		return fmt.Errorf("chaos: write fault rates sum to %v > 1", sum)
	}
	return nil
}

// Plan is a live fault plan. All methods are safe for concurrent use and
// safe on a nil receiver (a nil plan injects nothing). A plan may outlive
// the process incarnations that share it, so one seeded sequence of
// faults spans a whole crash-and-resume soak.
type Plan struct {
	cfg Config

	mu  sync.Mutex
	rng *rand.Rand
}

// NewPlan validates cfg and arms a plan.
func NewPlan(cfg Config) (*Plan, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.FS.MaxDelay <= 0 {
		cfg.FS.MaxDelay = 2 * time.Millisecond
	}
	return &Plan{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// roll samples one uniform variate and one fsync delay under the plan's
// lock.
func (p *Plan) roll() (r float64, delay time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rng.Float64(), time.Duration(p.rng.Int63n(int64(p.cfg.FS.MaxDelay)))
}
