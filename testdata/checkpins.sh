#!/usr/bin/env bash
# Checks pinned results against testdata/pins. Run from the repository
# root:
#
#   bash testdata/checkpins.sh                  # every pin
#   bash testdata/checkpins.sh fig3-300s churn  # the named pins
#
# Each pin's command runs under bash -o pipefail; the pin holds when the
# command exits 0 and its output carries the pinned value as a whole
# word. Exits 1 if any named pin fails, 2 on an unknown name.
set -uo pipefail

pins=testdata/pins
if [ ! -f "$pins" ]; then
	echo "checkpins: run from the repository root (no $pins)" >&2
	exit 2
fi
names=("$@")
if [ ${#names[@]} -eq 0 ]; then
	mapfile -t names < <(awk '!/^#/ && NF {print $1}' "$pins")
fi

status=0
for name in "${names[@]}"; do
	line=$(awk -v n="$name" '!/^#/ && $1 == n' "$pins")
	if [ -z "$line" ]; then
		echo "checkpins: no pin named $name in $pins" >&2
		exit 2
	fi
	read -r _ want cmd <<<"$line"
	echo "== $name: $cmd"
	out=$(bash -o pipefail -c "$cmd")
	rc=$?
	printf '%s\n' "$out"
	if [ $rc -ne 0 ]; then
		echo "FAIL $name: command exited $rc"
		status=1
	elif ! grep -qw -- "$want" <<<"$out"; then
		echo "FAIL $name: output does not carry the pinned $want"
		status=1
	else
		echo "ok   $name $want"
	fi
done
exit $status
