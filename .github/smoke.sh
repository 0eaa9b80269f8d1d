#!/usr/bin/env bash
# Console-script smoke test: every subcommand of the installed `blockrank`
# on a 5-node graph with a non-ASCII label and a blocks file with CRLF line
# ends, then `check`, `rank` and `compare` on an edge list of several parse
# windows, and `rank` on a cover where one block meets every aggregate, with
# and without a dangling node.
# Needs `pip install -e .`, `seq`, `awk`, `sed`, `od` and `timeout`; runs in a scratch
# directory, removed on exit.
set -euo pipefail
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir"
printf 'a b\nb c\nc d\nd a\nd é\né a\n' > smoke.edges
printf 'a X\r\nb X\r\nc Y\r\nd Y\r\né Y\r\n' > smoke.blocks
# the top-level parser: help names every command; no command is a usage
# error (exit 2); a command's help comes from its own parser
blockrank --help > help.out
for command in check rank compare materialize; do grep -q "^    $command " help.out; done
status=0
blockrank 2> usage.err || status=$?
test "$status" -eq 2
grep -q '^usage: blockrank' usage.err
blockrank rank --help > rank_help.out
grep -q '^usage: blockrank rank' rank_help.out
blockrank check --graph smoke.edges --blocks smoke.blocks
blockrank rank --graph smoke.edges --blocks smoke.blocks | tee rank.tsv
test "$(wc -l < rank.tsv)" -eq 5
grep -q '^é	' rank.tsv
blockrank rank --graph smoke.edges --blocks smoke.blocks --dangling uniform --eta 0.5 --mu 0.5
blockrank compare --graph smoke.edges --blocks smoke.blocks
blockrank compare --graph smoke.edges --blocks smoke.blocks --format json
blockrank materialize --graph smoke.edges --blocks smoke.blocks
# mu = 0 without teleportation leaves the hyperlink chain alone, which the
# indicator matrix does not decide: refused with one error line, exit 1, no
# traceback; --no-strict ranks it
status=0
blockrank rank --graph smoke.edges --blocks smoke.blocks --eta 1 --mu 0 2> mu0.err || status=$?
test "$status" -eq 1
test "$(wc -l < mu0.err)" -eq 1
grep -q '^error: ' mu0.err
if grep -q Traceback mu0.err; then cat mu0.err; exit 1; fi
blockrank rank --graph smoke.edges --blocks smoke.blocks --eta 1 --mu 0 --no-strict > mu0.tsv
test "$(wc -l < mu0.tsv)" -eq 5
# a dangling node in the sink block of a reducible W: under --dangling
# uniform its row reaches every node, so the model is admissible and ranks;
# under --dangling block it is refused, one error line, exit 1, no traceback
printf 'a b\n' > sink.edges
printf 'a X\nb Y\n' > sink.blocks
# b's row of H (line 3 of the dense view): uniform over both nodes, or b's own block
blockrank materialize --graph sink.edges --blocks sink.blocks --dangling uniform > sink_uniform.txt
test "$(sed -n 3p sink_uniform.txt)" = "$(printf '0.5\t0.5')"
blockrank materialize --graph sink.edges --blocks sink.blocks --dangling block > sink_block.txt
test "$(sed -n 3p sink_block.txt)" = "$(printf '0\t1')"
blockrank rank --graph sink.edges --blocks sink.blocks --dangling uniform --eta 0.7 --mu 0.3 \
  --format json > sink.json
grep -q '"admissible": true' sink.json
status=0
blockrank rank --graph sink.edges --blocks sink.blocks --dangling block --eta 0.7 --mu 0.3 \
  2> sink.err || status=$?
test "$status" -eq 1
test "$(wc -l < sink.err)" -eq 1
grep -q '^error: ' sink.err
if grep -q Traceback sink.err; then cat sink.err; exit 1; fi
# b links to itself, so no node dangles and the sink block Y holds none:
# refused under --dangling uniform too, naming W's components on one line
printf 'a b\nb b\n' > loop.edges
status=0
blockrank rank --graph loop.edges --blocks sink.blocks --dangling uniform 2> loop.err || status=$?
test "$status" -eq 1
test "$(cat loop.err)" = 'error: indicator matrix is reducible; blocking components: X Y'
test "$(wc -l < loop.err)" -eq 1
# one step observes no rate: exit 3 with one warning line, no traceback
status=0
blockrank rank --graph smoke.edges --blocks smoke.blocks --max-iter 1 > one.tsv 2> one.err \
  || status=$?
test "$status" -eq 3
test "$(wc -l < one.err)" -eq 1
grep -q '^warning: ' one.err
if grep -q Traceback one.err; then cat one.err; exit 1; fi
# a flag the command does not read is an input error, reported under the
# command's own usage line
status=0
blockrank check --graph smoke.edges --blocks smoke.blocks --eta 0.5 2> flag.err || status=$?
test "$status" -eq 2
grep -q 'usage: blockrank check' flag.err
# a blocks file that is not valid UTF-8 is an input error: one line, no traceback
printf 'a X\n\xff Y\n' > bad.blocks
status=0
blockrank check --graph smoke.edges --blocks bad.blocks 2> bad.err || status=$?
test "$status" -eq 2
grep -q '^error: ' bad.err
if grep -q Traceback bad.err; then cat bad.err; exit 1; fi
# an edge list of several parse windows (about 660 KB) and one whose
# malformed line lies in the last window: one error line naming it, exit 2,
# no traceback
seq 0 59999 | awk '{ u = $1 % 5000; printf "v%d\tv%d\n", u, (u + 1 + 37 * int($1 / 5000)) % 5000 }' > big.edges
seq 0 4999 | awk '{ printf "v%d\tb%d\n", $1, $1 % 10 }' > big.blocks
blockrank check --graph big.edges --blocks big.blocks
# rank and compare on that corpus, whose blocks leak too much for the
# corrector (a refusal by the links): one row per node, and a rerun gives
# the same bytes
blockrank rank --graph big.edges --blocks big.blocks > big.tsv
test "$(wc -l < big.tsv)" -eq 5000
blockrank rank --graph big.edges --blocks big.blocks | cmp - big.tsv
blockrank compare --graph big.edges --blocks big.blocks --format json > big.json
test "$(wc -l < big.json)" -eq 1
blockrank compare --graph big.edges --blocks big.blocks --format json | cmp - big.json
# the same with teleportation (eta + mu < 1), whose uniform jump the step
# adds each iteration: one row per node, and a rerun gives the same bytes
blockrank rank --graph big.edges --blocks big.blocks --eta 0.6 --mu 0.3 --teleport 0.1 > tele.tsv
test "$(wc -l < tele.tsv)" -eq 5000
blockrank rank --graph big.edges --blocks big.blocks --eta 0.6 --mu 0.3 --teleport 0.1 \
  | cmp - tele.tsv
blockrank compare --graph big.edges --blocks big.blocks --eta 0.6 --mu 0.3 --format json > tele.json
test "$(wc -l < tele.json)" -eq 1
blockrank compare --graph big.edges --blocks big.blocks --eta 0.6 --mu 0.3 --format json \
  | cmp - tele.json
# --top k selects the top k before it orders them: the same bytes as the
# head of the full output; compare clips a k above the node count, warns
# and exits 0
blockrank rank --graph big.edges --blocks big.blocks --top 3 > top3.tsv
head -n 3 big.tsv | cmp - top3.tsv
blockrank compare --graph big.edges --blocks big.blocks --top 6000 > clipped.out 2> clipped.err
grep -q '^warning: top-k clipped to 5000$' clipped.err
grep -q '^k	5000$' clipped.out
# URL-like labels, long enough to be keyed by a hash, over several parse
# windows (about 3 MB), under a pair that an unsalted hash of two words
# keys alike on line 1: check, then rank twice to the same bytes
{
  printf 'aaaaaaaabbbbbbb\tbbbbbbbaaaaaaaa\n'
  seq 0 39999 | awk '{ u = $1 % 5000; v = (u + 1 + 37 * int($1 / 5000)) % 5000
    printf "https://host%d.example.org/page/%d\thttps://host%d.example.org/page/%d\n", u % 97, u, v % 97, v }'
} > url.edges
{
  printf 'aaaaaaaabbbbbbb\tsite-0\nbbbbbbbaaaaaaaa\tsite-0\n'
  seq 0 4999 | awk '{ printf "https://host%d.example.org/page/%d\tsite-%d\n", $1 % 97, $1, $1 % 10 }'
} > url.blocks
blockrank check --graph url.edges --blocks url.blocks
blockrank rank --graph url.edges --blocks url.blocks > url.tsv
test "$(wc -l < url.tsv)" -eq 5002
blockrank rank --graph url.edges --blocks url.blocks | cmp - url.tsv
# a non-ASCII edge list over two parse windows (about 560 KB): a
# byte-order mark, é and astral labels, U+3000 separators and CRLF line
# ends; check, then rank twice to the same bytes, one row per node
sp=$(printf '\343\200\200')
{
  printf '\357\273\277'
  seq 0 29999 | awk -v sp="$sp" 'function label(x) { return (x % 2 ? "é" : "😀") x }
    { u = $1 % 5000; printf "%s%s%s\r\n", label(u), sp, label((u + 1 + 37 * int($1 / 5000)) % 5000) }'
} > wide.edges
test "$(wc -c < wide.edges)" -gt 262144
seq 0 4999 | awk 'function label(x) { return (x % 2 ? "é" : "😀") x }
  { printf "%s\tb%d\n", label($1), $1 % 10 }' > wide.blocks
blockrank check --graph wide.edges --blocks wide.blocks
blockrank rank --graph wide.edges --blocks wide.blocks > wide.tsv
test "$(wc -l < wide.tsv)" -eq 5000
blockrank rank --graph wide.edges --blocks wide.blocks | cmp - wide.tsv
# an edge list of three parse windows (about 640 KB) with a byte-order mark,
# CRLF line ends and a label whose 'é' straddles the file's first 256 KiB
# boundary (its bytes at offsets 262143 and 262144): the parser reads it a
# window at a time, and rank prints the same bytes as on its LF twin
# without the mark
LC_ALL=C awk 'BEGIN {
  printf "\357\273\277"; size = 3
  for (i = 0; size < 262100; i++) {
    u = i % 5000; line = sprintf("v%d\tv%d\r\n", u, (u + 1 + 37 * int(i / 5000)) % 5000)
    printf "%s", line; size += length(line)
  }
  label = "w"; while (size + length("v1\t") + length(label) < 262143) label = label "x"
  printf "v1\t%s\303\251\r\n", label; size += length("v1\t") + length(label) + 4
  for (; size < 640000; i++) {
    u = i % 5000; line = sprintf("v%d\tv%d\r\n", u, (u + 1 + 37 * int(i / 5000)) % 5000)
    printf "%s", line; size += length(line)
  }
}' > crlf.edges
test "$(od -An -tx1 -j262143 -N2 crlf.edges | tr -d ' ')" = c3a9
tail -c +4 crlf.edges | tr -d '\r' > lf.edges
tr -d '\r' < lf.edges | awk '{ print $1; print $2 }' | LC_ALL=C sort -u \
  | awk '{ printf "%s\tb%d\n", $1, NR % 10 }' > crlf.blocks
blockrank rank --graph crlf.edges --blocks crlf.blocks > crlf.tsv
test "$(wc -l < crlf.tsv)" -eq 5001
blockrank rank --graph lf.edges --blocks crlf.blocks | cmp - crlf.tsv
# the same file with one byte that is not UTF-8 past the first window: one
# error line naming its offset in the file, exit 2, no traceback
{ head -c 400000 crlf.edges; printf '\377'; tail -c +400001 crlf.edges; } > badbyte.edges
status=0
blockrank rank --graph badbyte.edges --blocks crlf.blocks > /dev/null 2> badbyte.err || status=$?
test "$status" -eq 2
test "$(cat badbyte.err)" = 'error: badbyte.edges: not valid UTF-8 at byte 400000'
test "$(wc -l < badbyte.err)" -eq 1
# a 100,000-character label on line 1 of the edge list: check and rank
long=$(printf '%0100000d' 0 | tr 0 x)
{ printf '%s\tv0\n' "$long"; cat big.edges; } > long.edges
{ printf '%s\tb0\n' "$long"; cat big.blocks; } > long.blocks
blockrank check --graph long.edges --blocks long.blocks
blockrank rank --graph long.edges --blocks long.blocks > long.tsv
test "$(wc -l < long.tsv)" -eq 5001
awk 'NR == 59000 { print "v1 v2 v3"; next } { print }' big.edges > bad.edges
status=0
blockrank check --graph bad.edges --blocks big.blocks 2> bad_edges.err || status=$?
test "$status" -eq 2
grep -q "^error: line 59000: expected 'src dst', got 3 token(s)$" bad_edges.err
if grep -q Traceback bad_edges.err; then cat bad_edges.err; exit 1; fi
# 4,000 singleton blocks listed first, then one all-node block; every node
# links to itself and v1 ... to one more node: k = n aggregates, and the
# coupled chain between them would hold k^2 entries if it were formed (17.7 s
# and 1.4 GB when it was); ranked with corrections in well under 10 s
seq 0 3999 | awk '{ printf "v%d\tv%d\n", $1, $1; if ($1) printf "v%d\tv%d\n", $1, ($1 * 7919 + 13) % 4000 }' \
  > cover.edges
{
  seq 0 3999 | awk '{ printf "v%d\ts%d\n", $1, $1 }'
  seq 0 3999 | awk '{ printf "v%d\tall\n", $1 }'
} > cover.blocks
timeout 10 blockrank rank --graph cover.edges --blocks cover.blocks --eta 0.9 --mu 0.1 > cover.tsv
test "$(wc -l < cover.tsv)" -eq 4000
# the same cover without v1's links: v1 dangles but is still a target, v0
# stays closed, and under --dangling uniform the dangling row is the
# corrector's hub block; one row per node, and a rerun gives the same bytes
awk '$1 != "v1"' cover.edges > hub.edges
timeout 10 blockrank rank --graph hub.edges --blocks cover.blocks --dangling uniform \
  --eta 0.9 --mu 0.1 > hub.tsv
test "$(wc -l < hub.tsv)" -eq 4000
timeout 10 blockrank rank --graph hub.edges --blocks cover.blocks --dangling uniform \
  --eta 0.9 --mu 0.1 | cmp - hub.tsv
