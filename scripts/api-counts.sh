#!/bin/sh
# Size report of every workspace crate: the numbers CHANGES.md and
# ROADMAP.md cite when a change removes code or public names.
#
#   scripts/api-counts.sh
#
# For each crate under crates/ it prints three counts:
#   lines    non-test source lines: each src/**/*.rs file up to (not
#            including) its test module, the first `#[cfg(test)]` line
#            directly followed by a `mod` line, or the whole file; a
#            `#[cfg(test)]` on any other item is counted with it
#   pub      lines among those that start (after indentation) with
#            `pub fn|struct|enum|trait|const|type|mod|static`
#   reexport names that src/lib.rs re-exports with `pub use`
#
# POSIX sh and awk only; run it from anywhere inside the repository.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

printf '%-10s %8s %6s %9s\n' crate lines pub reexport
for manifest in crates/*/Cargo.toml; do
    dir=${manifest%/Cargo.toml}
    name=$(awk -F'"' '/^name *=/ { print $2; exit }' "$manifest")
    # One line per file: "<non-test lines> <pub items>".
    counts=$(find "$dir/src" -name '*.rs' -type f | sort | while read -r file; do
        awk '
            /^[ \t]*#\[cfg\(test\)\]/ { held++; next }
            held && /^[ \t]*(pub(\([a-z]+\))? )?mod[ \t]/ { exit }
            { lines += held + 1; held = 0 }
            /^[ \t]*pub (fn|struct|enum|trait|const|type|mod|static)[ \t]/ { items++ }
            END { print lines + 0, items + 0 }
        ' "$file"
    done)
    lines=$(printf '%s\n' "$counts" | awk '{ s += $1 } END { print s + 0 }')
    items=$(printf '%s\n' "$counts" | awk '{ s += $2 } END { print s + 0 }')
    # Names in every `pub use` statement of lib.rs, braces spanning lines
    # included: drop the path prefix, then count the comma-separated names.
    reexports=$(awk '
        !open && /^pub use / { open = 1; stmt = "" }
        open {
            stmt = stmt " " $0
            if ($0 ~ /;[ \t]*$/) {
                open = 0
                sub(/^[ \t]*pub use[ \t]+/, "", stmt)
                if (stmt ~ /\{/) {
                    sub(/^[^{]*\{/, "", stmt)
                    sub(/\}[^}]*$/, "", stmt)
                } else {
                    sub(/;[ \t]*$/, "", stmt)
                }
                n = split(stmt, names, ",")
                for (i = 1; i <= n; i++) if (names[i] ~ /[A-Za-z_]/) total++
            }
        }
        END { print total + 0 }
    ' "$dir/src/lib.rs")
    printf '%-10s %8d %6d %9d\n' "$name" "$lines" "$items" "$reexports"
done
