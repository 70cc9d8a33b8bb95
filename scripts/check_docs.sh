#!/usr/bin/env bash
# Check that the markdown docs only reference flags, binaries and
# repo paths that actually exist, so documentation rot fails ctest
# instead of a reader. Run from anywhere; ctest runs it as the
# `check_docs` test.
set -u
cd "$(dirname "$0")/.."

docs="README.md EXPERIMENTS.md OBSERVABILITY.md DESIGN.md STORE.md"
fail=0

err() {
    echo "check_docs: $1" >&2
    fail=1
}

# 1. Every documented --flag must be parsed somewhere: its key string
#    appears quoted in src/ bench/ examples/ tests/ — either bare
#    ("timeout", the Config::get* sites) or with its dashes
#    ("--update-golden", flags a test main strips itself).
#    Allowlisted: meta placeholders and flags belonging to other tools
#    (cmake --build, ctest --test-dir, git describe --always --dirty).
#    A trailing dash is a family glob ("--trace-*"), not a flag.
allow_flags=" options build test-dir output-on-failure always dirty "
for flag in $(grep -ohE -- '--[a-z][a-z0-9-]*' $docs | sed 's/^--//' |
              sort -u); do
    case "$allow_flags" in *" $flag "*) continue ;; esac
    case "$flag" in *-) continue ;; esac
    if ! grep -rqE -- "\"(--)?$flag\"" src bench examples tests; then
        err "flag --$flag is documented but parsed nowhere in src/ bench/ examples/ tests/"
    fi
done

# 2. Every bench/NAME or examples/NAME token must have a source file.
for bin in $(grep -ohE '(bench|examples)/[a-z0-9_]+' $docs | sort -u); do
    if [ ! -f "$bin.cc" ]; then
        err "binary $bin is documented but $bin.cc does not exist"
    fi
done

# 3. Repo paths under src/ tests/ scripts/ must exist. Tokens cut off
#    at a glob (src/workload/workload.*) are accepted when the prefix
#    matches something.
for p in $(grep -ohE '(src|tests|scripts)/[A-Za-z0-9_./-]+' $docs |
           sed 's/[.,;:]*$//' | sort -u); do
    if [ ! -e "$p" ] && ! ls "$p"* >/dev/null 2>&1; then
        err "path $p is documented but does not exist"
    fi
done

# 4. Documented ctest gate names (the `*_smoke` canaries) must be
#    registered with add_test under a stable name in a CMakeLists, so
#    a renamed gate cannot leave CI dashboards pointing at prose.
for t in $(grep -ohE '`[a-z0-9_]+_smoke`' $docs | tr -d '\`' | sort -u); do
    if ! grep -rq -- "add_test(NAME $t" tests/CMakeLists.txt \
            bench/CMakeLists.txt; then
        err "ctest gate $t is documented but registered nowhere"
    fi
done

# 5. STORE.md's flag table must cover every store flag the
#    implementation parses (the "store-*" Config keys), so a new
#    store knob cannot ship undocumented.
for key in $(grep -rohE '"store-[a-z-]+"' src examples | tr -d '"' |
             sort -u); do
    if ! grep -q -- "--$key" STORE.md; then
        err "store flag --$key is parsed but missing from STORE.md"
    fi
done

# 6. STORE.md's "`kStoreFormatVersion`, currently N" must name the
#    constant's value in src/store/store.hh, so a format bump cannot
#    leave the spec describing the previous envelope. The doc may wrap
#    the phrase across lines.
impl_ver=$(grep -ohE 'kStoreFormatVersion = [0-9]+' src/store/store.hh |
           grep -oE '[0-9]+$')
doc_ver=$(tr '\n' ' ' < STORE.md |
          grep -oE 'kStoreFormatVersion`, currently +[0-9]+' |
          grep -oE '[0-9]+$')
if [ -z "$impl_ver" ] || [ -z "$doc_ver" ]; then
    err "kStoreFormatVersion not found in src/store/store.hh or STORE.md"
elif [ "$impl_ver" != "$doc_ver" ]; then
    err "STORE.md documents store format $doc_ver but src/store/store.hh has kStoreFormatVersion = $impl_ver"
fi

# 7. Relative markdown link targets must exist.
for l in $(grep -ohE '\]\([^)]+\)' $docs | sed 's/^](//; s/)$//' |
           sort -u); do
    case "$l" in http://*|https://*|'#'*) continue ;; esac
    l=${l%%#*}
    if [ ! -e "$l" ]; then
        err "markdown link target $l does not exist"
    fi
done

# 8. The reverse of rule 1, held to the one flag table: the
#    "| `--key" rows of EXPERIMENTS.md list exactly the keys the
#    experiment harness and the bench binaries read (every
#    config.get*("key") or config.has("key") site in
#    src/harness/experiment.cc and bench/*.cc, a call split across
#    lines included), so neither an added nor a removed knob can leave
#    the table stale. A mention elsewhere in the file does not count.
read_keys=$(cat src/harness/experiment.cc bench/*.cc | tr '\n' ' ' |
            grep -oE 'config\.(get[A-Za-z]*|has)\( *"[a-z0-9-]+"' |
            grep -oE '"[a-z0-9-]+"' | tr -d '"' | sort -u)
table_keys=$(grep -oE '^\| `--[a-z0-9-]+' EXPERIMENTS.md |
             sed 's/^| `--//' | sort -u)
for key in $(comm -23 <(echo "$read_keys") <(echo "$table_keys")); do
    err "flag --$key is parsed but has no row in EXPERIMENTS.md's flag table"
done
for key in $(comm -13 <(echo "$read_keys") <(echo "$table_keys")); do
    err "EXPERIMENTS.md's flag table has a row for --$key, which no harness or bench code reads"
done

# 9. Every backticked qualified name (`ns::name`, `Class::member()`)
#    must name identifiers that exist: each `::`-separated part must
#    appear as a word in src/ bench/ examples/, so a renamed or
#    deleted symbol cannot linger in the prose.
for sym in $(grep -ohE '`[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)+' \
                 $docs | tr -d '`' | sort -u); do
    for part in $(echo "$sym" | tr ':' ' '); do
        if ! grep -rqw -- "$part" src bench examples; then
            err "symbol $sym is documented but $part exists nowhere in src/ bench/ examples/"
            break
        fi
    done
done

if [ "$fail" -ne 0 ]; then
    echo "check_docs: FAILED" >&2
    exit 1
fi
echo "check_docs: OK"
