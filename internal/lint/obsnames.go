package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// ObsNames enforces the repo's metric naming conventions at every
// instrument-creation call (Registry.Counter/Gauge/Histogram, their
// *With labeled variants, and Stage): names must be lowercase
// snake_case, carry a subsystem prefix (at least one "_"), counters must
// end in _total, histograms in a unit suffix (_seconds or _bytes), and
// gauges must not masquerade as counters (_total). The Prometheus
// renderer never validates names — a bad one simply produces an
// unscrapable exposition — so the convention is enforced where the name
// is written down. Stage arguments are exempt from the character rule's
// "/" ban: Stage itself rewrites "/" to "_" before the name reaches the
// registry. Only compile-time-constant names are checkable; dynamically
// built names (per-state counters) pass
// through. Test files are exempt — throwaway fixture names are not a
// metrics contract.
var ObsNames = &Analyzer{
	Name: "obsnames",
	Doc:  "obs metric names must be snake_case with a subsystem prefix and type-conventional suffix",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				kind, ok := obsNameMethods[sel.Sel.Name]
				if !ok || !isObsRegistryMethod(p, sel) {
					return true
				}
				name, ok := constString(p, call.Args[0])
				if !ok {
					return true
				}
				if msg := checkMetricName(name, kind); msg != "" {
					p.Reportf(call.Args[0].Pos(), "metric name %q %s", name, msg)
				}
				return true
			})
		}
	},
}

// obsNameKind classifies an instrument-creation method by the suffix
// convention its names must follow.
type obsNameKind int

const (
	obsKindCounter obsNameKind = iota
	obsKindGauge
	obsKindHistogram
	obsKindStage
)

var obsNameMethods = map[string]obsNameKind{
	"Counter":       obsKindCounter,
	"CounterWith":   obsKindCounter,
	"Gauge":         obsKindGauge,
	"GaugeWith":     obsKindGauge,
	"Histogram":     obsKindHistogram,
	"HistogramWith": obsKindHistogram,
	"Stage":         obsKindStage,
}

// checkMetricName returns "" when name follows the conventions for its
// instrument kind, or the violation description.
func checkMetricName(name string, kind obsNameKind) string {
	if name == "" {
		return "is empty"
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_' || (c == '/' && kind == obsKindStage) {
			continue
		}
		return "is not lowercase snake_case (allowed: [a-z0-9_])"
	}
	if c := name[0]; c < 'a' || c > 'z' {
		return "must start with a lowercase letter"
	}
	switch kind {
	case obsKindCounter:
		if !strings.HasSuffix(name, "_total") {
			return "is a counter and must end in _total"
		}
	case obsKindHistogram:
		if !strings.HasSuffix(name, "_seconds") && !strings.HasSuffix(name, "_bytes") {
			return "is a histogram and must carry a unit suffix (_seconds or _bytes)"
		}
	case obsKindGauge:
		if strings.HasSuffix(name, "_total") {
			return "is a gauge and must not end in _total (reserved for counters)"
		}
		if !strings.Contains(name, "_") {
			return "lacks a subsystem prefix (want subsystem_name)"
		}
	case obsKindStage:
		// Stage prepends stage_ and appends _seconds itself; any snake_case
		// (or /-separated) stage name is fine.
	}
	return ""
}

// isObsRegistryMethod reports whether sel resolves to a method declared
// in an internal/obs package (matching through the type checker, so
// renamed imports and embedded forwarding still count).
func isObsRegistryMethod(p *Pass, sel *ast.SelectorExpr) bool {
	s, ok := p.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	pkg := s.Obj().Pkg()
	return pkg != nil && pathWithin(pkg.Path(), "internal/obs")
}

// constString resolves e to its compile-time string value (literals,
// consts, folded concatenations), ok=false otherwise.
func constString(p *Pass, e ast.Expr) (string, bool) {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
