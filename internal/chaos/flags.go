package chaos

import (
	"flag"
	"fmt"
	"log/slog"
	"strconv"
	"strings"
)

// BindFlags registers on fs the seven -chaos-* flags the fault-injectable
// commands share — the seed, the four journal filesystem rates, the
// scheduling delay rate and the kill list, whose name (killFlag, e.g.
// "chaos-kill-tasks") and help say what the command counts — and returns
// the function the command calls once fs is parsed. That call builds the
// plan and logs that it is armed; at -chaos-seed 0 it returns a nil plan,
// which injects nothing.
func BindFlags(fs *flag.FlagSet, killFlag, killHelp, schedDelayHelp string) func(*slog.Logger) (*Plan, error) {
	seed := fs.Int64("chaos-seed", 0, "fault-injection seed; 0 disables the chaos plan entirely")
	kills := fs.String(killFlag, "", killHelp)
	torn := fs.Float64("chaos-fs-torn", 0, "probability a journal write is torn (partial write + EIO)")
	enospc := fs.Float64("chaos-fs-enospc", 0, "probability a journal write fails with ENOSPC")
	slowSync := fs.Float64("chaos-fs-slow-sync", 0, "probability an fsync is delayed")
	renameFail := fs.Float64("chaos-fs-rename-fail", 0, "probability a rename fails with EIO")
	schedDelay := fs.Float64("chaos-sched-delay", 0, schedDelayHelp)
	return func(logger *slog.Logger) (*Plan, error) {
		if *seed == 0 {
			return nil, nil
		}
		cfg := Config{
			Seed:  *seed,
			FS:    FSConfig{TornWrite: *torn, ENOSPC: *enospc, SlowSync: *slowSync, RenameFail: *renameFail},
			Sched: SchedConfig{Delay: *schedDelay},
		}
		if *kills != "" {
			for _, p := range strings.Split(*kills, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(p))
				if err != nil {
					return nil, fmt.Errorf("bad -%s entry %q: %w", killFlag, p, err)
				}
				cfg.KillTasks = append(cfg.KillTasks, n)
			}
		}
		plan, err := NewPlan(cfg)
		if err != nil {
			return nil, err
		}
		// "chaos-kill-tasks" logs as kill_tasks, "chaos-kill-chunks" as kill_chunks.
		key := strings.ReplaceAll(strings.TrimPrefix(killFlag, "chaos-"), "-", "_")
		logger.Warn("fault injection armed", "seed", *seed, key, *kills)
		return plan, nil
	}
}
