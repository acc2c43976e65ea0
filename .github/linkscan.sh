#!/usr/bin/env bash
# Link scan: fail on any non-test function that no binary links.
#
# Builds every cmd/ and examples/ binary and the bench/ module with inlining
# off (-gcflags=all=-l, so a called function keeps its own symbol), reads the
# linked symbols with `go tool nm`, and compares them with the functions and
# methods declared in the non-test files of every library package. A
# declaration neither linked nor listed in .github/linkscan-allow.txt is
# reported, and the script exits 1.
#
# Usage (from the repository root): bash .github/linkscan.sh
set -euo pipefail

cd "$(dirname "$0")/.."
allow=.github/linkscan-allow.txt
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for dir in cmd/*/ examples/*/; do
	go build -gcflags=all=-l -o "$tmp/bin/$(basename "$dir")-$(dirname "$dir")" "./$dir"
done
go build -C bench -gcflags=all=-l -o "$tmp/bin/bench" .

# Linked symbols, normalised to pkg.Func or pkg.Type.Method: generic
# instantiations lose their shape arguments ((*lru[go.shape.string]).Get ->
# lru.Get) and pointer receivers their (* ).
for bin in "$tmp"/bin/*; do
	go tool nm "$bin"
done | sed -nE 's/^ *[0-9a-f]+ [Tt] //; T; s/\[.*\]//; s/\(\*([^)]*)\)/\1/; p' |
	sort -u >"$tmp/linked"

# Declared functions of every library package (GoFiles honours build
# constraints, so a file built only on another OS is not counted).
go list -f '{{if ne .Name "main"}}{{$p := .ImportPath}}{{$d := .Dir}}{{range .GoFiles}}{{$p}} {{$d}}/{{.}}{{"\n"}}{{end}}{{end}}' ./... |
	while read -r pkg file; do
		sed -nE -e 's/^func \(([^)]*[ *])?([A-Za-z0-9_]+)(\[[^]]*\])?\) ([A-Za-z0-9_]+).*/\2.\4/p; t' \
			-e 's/^func ([A-Za-z0-9_]+).*/\1/p' "$file" |
			sed -e '/^init$/d' -e "s|^|$pkg.|"
	done | sort -u >"$tmp/declared"

awk '!/^[[:space:]]*(#|$)/ { print $1 }' "$allow" | sort -u >"$tmp/allowed"

# Allow-list entries that no longer name a declaration are stale too.
stale=$(comm -23 "$tmp/allowed" "$tmp/declared")
unlinked=$(comm -23 "$tmp/declared" "$tmp/linked" | comm -23 - "$tmp/allowed")
status=0
if [ -n "$unlinked" ]; then
	echo "functions no binary links (delete them, move test oracles into _test.go files, or allow-list them with the test that needs them):"
	echo "$unlinked" | sed 's/^/  /'
	status=1
fi
if [ -n "$stale" ]; then
	echo "allow-list entries that name no declared function:"
	echo "$stale" | sed 's/^/  /'
	status=1
fi
[ "$status" -eq 0 ] && echo "link scan: every non-test function is linked or allow-listed"
exit "$status"
