# Sourced by benchpair.sh and allocgate.sh from the repository root: resolves
# the parent commit a change is compared against and unpacks it, once, for
# its own bench/hybridbench/run.sh to build. Sets base, scratch and parent.
#
# The parent is the merge-base with main — HEAD itself when the working tree
# has uncommitted changes on top of it, HEAD~1 when a clean HEAD is already on
# main — exported with `git archive`, so nothing is left in .git.
#
# Environment:
#   BASE      parent commit (default: see above)
#   SCRATCH   where the parent is unpacked and results kept (default: mktemp -d)
base="${BASE:-}"
if [ -z "$base" ]; then
	base="$(git merge-base HEAD main)"
	if [ "$base" = "$(git rev-parse HEAD)" ] && [ -z "$(git status --porcelain --untracked-files=no)" ]; then
		base="$(git rev-parse HEAD~1)"
	fi
fi
base="$(git rev-parse --verify "$base^{commit}")"

scratch="${SCRATCH:-$(mktemp -d)}"
parent="$scratch/parent-${base:0:12}"
if [ ! -d "$parent" ]; then
	mkdir -p "$parent"
	git archive "$base" | tar -x -C "$parent"
fi
