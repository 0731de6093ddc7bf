#!/usr/bin/env bash
# taint-envelope.sh re-measures what taintflow must catch on the real tree
# (DESIGN.md §12, "The envelope"). It copies the module into a scratch
# directory once per probe, removes one validation there — one of the
# tree's //lint:sanitizes annotations (each gets a probe, found by grep),
# a guard `if`, or mpi.readBody's bounded loop — and counts the
# [taintflow] findings fcmavet prints on the copy. The unmodified tree
# must print none; every probe must print at least one.
#
# Usage: scripts/taint-envelope.sh [module-dir]   (default: the current one)
#
# Exit status is 0 when the envelope holds, 1 when the clean tree has a
# finding or a probe has none, 2 when a probe no longer applies (the code
# it edits moved; update its pattern here) or leaves a copy fcmavet cannot
# load.
set -euo pipefail

src=$(cd "${1:-.}" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

(cd "$src" && go build -o "$work/fcmavet" ./cmd/fcmavet)

count() {
	local out rc=0
	out=$("$work/fcmavet" -C "$1" -analyzers taintflow ./... 2>&1) || rc=$?
	if [ "$rc" -eq 2 ]; then
		echo "fcmavet cannot analyze $1:" >&2
		echo "$out" >&2
		exit 2
	fi
	grep -c '\[taintflow\]' <<<"$out" || true
}

status=0
clean=$(count "$src")
printf '%-44s %s\n' "clean tree" "$clean"
[ "$clean" -eq 0 ] || status=1

# probe NAME FILE PERL-SUBSTITUTION: apply the substitution to FILE in a
# fresh copy of the module and report the finding count.
probe() {
	local name=$1 file=$2 subst=$3 dir="$work/tree"
	rm -rf "$dir" && mkdir "$dir"
	tar -C "$src" --exclude=.git --exclude=.bench_build -cf - . | tar -C "$dir" -xf -
	cp "$dir/$file" "$work/before"
	perl -0pi -e "$subst" "$dir/$file"
	if cmp -s "$dir/$file" "$work/before"; then
		echo "probe $name: pattern not found in $file" >&2
		exit 2
	fi
	local n
	n=$(count "$dir")
	printf '%-44s %s\n' "$name" "$n"
	[ "$n" -gt 0 ] || status=1
}

# (a) every //lint:sanitizes taintflow annotation in the tree (fixtures
# under testdata aside), one probe each, named by its package and the
# function it annotates. An annotation whose removal changes no finding
# asserts nothing the analyzer needs, so it fails the envelope too.
while IFS=: read -r file line _; do
	fn=$(awk -v n="$line" 'NR > n && /^func / { print; exit }' "$src/$file" |
		sed -E 's/^func (\([a-z]+ \*?([A-Za-z0-9_]+)\) )?([A-Za-z0-9_]+).*/\2.\3/; s/^\.//')
	probe "sanitizes: $(basename "$(dirname "$file")") $fn" "$file" \
		's{\A((?:[^\n]*\n){'$((line - 1))'})//lint:sanitizes taintflow[^\n]*\n}{$1}'
done < <(cd "$src" && grep -rn --include='*.go' --exclude-dir=testdata '^//lint:sanitizes taintflow' . |
	sed 's|^\./||' | sort)

# (b) a guard that rejects a value read from outside
probe "guard: mpi frame size" internal/mpi/tcp.go \
	's{\tif n > maxBody \{\n.*?\n\t\}\n}{}s'
probe "guard: fmri name length" internal/fmri/io.go \
	's{\tif nameLen > 1<<16 \{\n.*?\n\t\}\n}{}s'
probe "guard: serve upload section length" internal/serve/cache.go \
	's{\tif dataLen > uint64\(len\(blob\)-8\) \{\n.*?\n\t\}\n}{}s'
probe "guard: fcma remapScores" fcma.go \
	's{\t\tif s\.Voxel < 0 \|\| s\.Voxel >= len\(report\.Kept\) \{\n.*?\n\t\t\}\n}{}s'

# (c) the readBody draft: the frame body's fill loop counts what it read,
# so the read count — raw input — sizes the next append and slice.
probe "draft: mpi readBody counts its reads" internal/mpi/tcp.go \
	's{\tfor len\(body\) < n \{\n.*?\n\t\}\n\treturn body, nil}{\tgot := 0
	for got < n {
		body = append(body, make([]byte, min(n-got, max(got, firstBodyAlloc)))...)
		m, err := io.ReadFull(r, body[got:])
		got += m
		if err != nil {
			return nil, err
		}
	}
	return body, nil}s'

exit $status
