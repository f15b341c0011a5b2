#!/bin/sh
# help_smoke.sh THISTLE_CLI
#
# Renders --help=plain for the top-level command and every subcommand,
# descending into command groups, and fails if any of them writes to
# stderr (cmdliner reports malformed doc markup there, e.g. an illegal
# escape, while still exiting 0).
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 path/to/thistle_cli.exe" >&2
    exit 2
fi

cli=$1
case $cli in */*) ;; *) cli=./$cli ;; esac

dir=$(mktemp -d "${TMPDIR:-/tmp}/thistle_help.XXXXXX")
trap 'rm -rf "$dir"' EXIT

checked=0

# check "SUBCOMMAND..." renders the help of one command, then recurses
# into the subcommands its COMMANDS section lists.
check() {
    # shellcheck disable=SC2086
    if ! "$cli" $1 --help=plain > "$dir/out" 2> "$dir/err"; then
        echo "help smoke: '$1 --help=plain' failed" >&2
        cat "$dir/err" >&2
        exit 1
    fi
    if [ -s "$dir/err" ]; then
        echo "help smoke: '$1 --help=plain' wrote to stderr:" >&2
        cat "$dir/err" >&2
        exit 1
    fi
    checked=$((checked + 1))
    subs=$(awk '/^[A-Z]/ { in_cmds = ($0 == "COMMANDS") ; next }
                in_cmds && /^       [a-z]/ { print $1 }' "$dir/out")
    for sub in $subs; do
        check "${1:+$1 }$sub"
    done
}

check ""

if [ "$checked" -lt 2 ]; then
    echo "help smoke: found no subcommands" >&2
    exit 1
fi
echo "help smoke: $checked help pages rendered with empty stderr"
