package obs

import (
	"flag"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"fcma/internal/obs/trace"
)

// BootstrapCLI registers the two observability flags every command shares,
// -log-format and -flight-out, on fs, and returns the function the command
// calls once fs is parsed. That call wires the shared glue:
//
//   - a structured logger writing to stderr in the chosen format ("json",
//     or anything else for text), with every record also teed into the
//     process flight recorder (log.go), installed as the process default
//     so library layers logging via slog.Default() follow the same
//     -log-format;
//   - crash dumps armed at stderr — or at the -flight-out file, which is
//     only created if a dump actually fires — so a contained panic or a
//     fatal cluster abort leaves a black-box readout;
//   - a SIGQUIT handler that dumps the flight recorder on demand without
//     killing the process (the classic "what is it doing right now" probe).
//
// component is attached to every log record; extra attrs (rank, role)
// ride along. It returns the logger for the command's own use.
func BootstrapCLI(fs *flag.FlagSet) func(component string, attrs ...slog.Attr) *slog.Logger {
	format := fs.String("log-format", "text", `status log format: "text" or "json"`)
	flightOut := fs.String("flight-out", "", "write flight-recorder crash dumps to this file instead of stderr (created only if a dump fires)")
	return func(component string, attrs ...slog.Attr) *slog.Logger {
		opts := &slog.HandlerOptions{Level: slog.LevelInfo}
		var inner slog.Handler = slog.NewTextHandler(os.Stderr, opts)
		if strings.EqualFold(*format, "json") {
			inner = slog.NewJSONHandler(os.Stderr, opts)
		}
		attrs = append([]slog.Attr{slog.String("component", component)}, attrs...)
		logger := slog.New(flightHandler{inner: inner.WithAttrs(attrs)})
		slog.SetDefault(logger)
		if *flightOut != "" {
			trace.ArmCrashDumpFile(*flightOut)
		} else {
			trace.ArmCrashDump(os.Stderr)
		}
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, syscall.SIGQUIT)
		spawn("obs/sigquit", func() {
			for range ch {
				trace.DumpNow("SIGQUIT")
			}
		})
		return logger
	}
}
