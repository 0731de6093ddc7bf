package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
)

// buildInfo is resolved once: the module version, the Go toolchain, and
// the vcs revision when the binary was built from a git checkout.
var buildInfo = sync.OnceValue(func() map[string]string {
	info := map[string]string{
		"go_version": runtime.Version(),
		"version":    "(devel)",
	}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return info
	}
	if bi.Main.Version != "" {
		info["version"] = bi.Main.Version
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			info["revision"] = s.Value
		case "vcs.modified":
			info["modified"] = s.Value
		}
	}
	return info
})

// handleHealthz answers liveness probes with a small JSON document that
// doubles as a build identity readout.
func handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	doc := map[string]string{"status": "ok"}
	for k, v := range buildInfo() {
		doc[k] = v
	}
	_ = json.NewEncoder(w).Encode(doc)
}

// writeBuildInfoProm emits the conventional constant-1 info gauge with the
// build identity as labels, e.g.
//
//	fcma_build_info{go_version="go1.24.0",revision="abc123",version="(devel)"} 1
func writeBuildInfoProm(w io.Writer) error {
	info := buildInfo()
	keys := make([]string, 0, len(info))
	for k := range info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	labels := make([]string, 0, len(keys))
	for _, k := range keys {
		labels = append(labels, fmt.Sprintf("%s=%q", k, info[k]))
	}
	_, err := fmt.Fprintf(w, "# TYPE fcma_build_info gauge\nfcma_build_info{%s} 1\n",
		strings.Join(labels, ","))
	return err
}
