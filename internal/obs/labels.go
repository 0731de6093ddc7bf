package obs

import (
	"sort"
	"strings"
)

// Labeled series. The registry's maps stay flat — a labeled instrument is
// an ordinary instrument whose map key is the canonical series name
// `family{k1="v1",k2="v2"}` produced by SeriesName. That keeps the hot
// path identical (one map lookup, cached by the caller), makes
// Snapshot/Merge work untouched (series keys merge like any other name),
// and concentrates all label knowledge in two small functions: SeriesName
// to build keys and splitSeries (prom.go) to render them.

// Label is one key=value dimension on a metric series ("tenant", "route",
// "method", "code"). Values are free-form; SeriesName escapes them.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// SeriesName canonicalizes a metric family name plus labels into the
// registry key and Prometheus series id `name{k1="v1",k2="v2"}`: labels
// sorted by key (deterministic output independent of call-site order) and
// values escaped per the text exposition format (backslash, quote,
// newline). No labels returns name unchanged.
func SeriesName(name string, labels ...Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.Grow(len(name) + 16*len(ls))
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue escapes a label value for the Prometheus text format:
// backslash, double quote, and newline must be escaped; everything else
// passes through.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 4)
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// splitSeries separates a canonical series key into its family name and
// rendered label body (without braces). A bare name returns ("", false)
// for the labels.
func splitSeries(key string) (family, labels string, ok bool) {
	i := strings.IndexByte(key, '{')
	if i < 0 || !strings.HasSuffix(key, "}") {
		return key, "", false
	}
	return key[:i], key[i+1 : len(key)-1], true
}

// sortSeriesKeys orders series keys by (family, label body) so every
// family's series are contiguous — a plain string sort would split a
// family carrying both bare and labeled series, because '_' sorts below
// '{' ("foo" < "foo_other" < `foo{...}`), and the renderer would then
// emit a duplicate # TYPE line for it.
func sortSeriesKeys(keys []string) {
	sort.Slice(keys, func(i, j int) bool {
		fi, li, _ := splitSeries(keys[i])
		fj, lj, _ := splitSeries(keys[j])
		if fi != fj {
			return fi < fj
		}
		return li < lj
	})
}
