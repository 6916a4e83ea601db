#!/usr/bin/env python3
"""Runs the benchmark and writes perfbench/RESULTS.md.

Run from the repository root:

  python3 perfbench/report.py table  [--seed 1] [--seconds N]
      one untraced and one traced run of every workload -> perfbench/results.json
  python3 perfbench/report.py spread [--seeds 1-10] [--seconds N]
      untraced runs of every workload over several seeds; the quartile spread
      of every end-to-end metric as a share of its median, against its bound,
      and the largest departure of a single run from the median
      -> perfbench/spread.json
  python3 perfbench/report.py render

--seconds defaults to BENCHMARK.json's run_seconds. table and spread always
run every workload and overwrite their file; spread.json carries the stamp of
the code it measured, as results.json's records do. Every mode then renders
perfbench/RESULTS.md from whichever of the two JSON files exist.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, '..', 'BENCHMARK.json')
RESULTS = os.path.join(HERE, 'results.json')
SPREAD = os.path.join(HERE, 'spread.json')
REPORT = os.path.join(HERE, 'RESULTS.md')

# Which end-to-end metric each layer should move, on which workload.
SHOULD_MOVE = {
    'nn.': 'rounds_per_s on sim-eds and tcp-loopback; on fleet-day by its training share',
    'opt.': 'rounds_per_s on sim-eds and tcp-loopback; on fleet-day by its training share',
    'models.': 'rounds_per_s on sim-eds and tcp-loopback; on fleet-day by its training share',
    'selection.': 'rounds_per_s on sim-eds',
    'metrics.': 'round_p50_ms on tcp-loopback (the server evaluates every round)',
    'strategy.': 'round_p50_ms on tcp-loopback',
    'comm.': 'round_p50_ms and round_tail_ms on tcp-loopback only',
    'core.local_update_ms': 'round_p50_ms and round_tail_ms on tcp-loopback only',
    'fleet.new_ms': 'setup_s on fleet-day',
    'fleet.': 'rounds_per_s on fleet-day only',
    'core.describe_calls': 'rounds_per_s on fleet-day only',
    'sched.': 'rounds_per_s on fleet-day only',
    'core.self_ms': 'rounds_per_s on every workload (engine work between traced calls)',
    'trace.': 'none (checks and overhead of the traced run itself)',
}


def should_move(name):
    best = ''
    for prefix in SHOULD_MOVE:
        if name.startswith(prefix) and len(prefix) > len(best):
            best = prefix
    return SHOULD_MOVE.get(best, '')


def run(workload, seed, seconds, trace):
    out = subprocess.run(['bash', 'perfbench/run.sh', '--workload', workload, '--seed', str(seed),
                          '--seconds', str(seconds), '--trace', str(trace)],
                         capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f'{workload} seed {seed} trace {trace} failed:\n{out.stderr[-2000:]}')
    lines = out.stdout.strip().split('\n')
    return json.loads(lines[-2]), json.loads(lines[-1])


def parse_seeds(text):
    lo, _, hi = text.partition('-')
    return list(range(int(lo), int(hi or lo) + 1))


def fmt(v):
    if v == 0:
        return '0'
    if abs(v) >= 1000:
        return f'{v:,.0f}'
    return f'{v:.4g}'


def render(manifest):
    lines = ['# perfbench results', '',
             'Generated by `python3 perfbench/report.py`; see `perfbench/README.md` for what each',
             'workload and metric means. Times are wall-clock medians on the machine named below.', '']
    names = [w['name'] for w in manifest['workloads']]
    if os.path.exists(RESULTS):
        res = json.load(open(RESULTS))
        st = res[names[0]]['untraced']['stamp']
        lines += ['## Machine and code', '',
                  f"CPU `{st['cpu']}`, nproc {st['nproc']}, GOMAXPROCS {st['gomaxprocs']}, "
                  f"{st['go_version']}, tensor kernel `{st['kernel']}`, seed {st['seed']}, "
                  f"commit `{st['commit']}`, source `{st['source_sha']}`.", '',
                  '## End to end (untraced runs)', '',
                  "Times are at reference speed (see perfbench/calibrate.go); measured values in parentheses.", '',
                  '| metric | unit | ' + ' | '.join(names) + ' |',
                  '|---|---|' + '---:|' * len(names)]
        for m in manifest['end_to_end']:
            row = []
            for w in names:
                u = res[w]['untraced']
                v, raw = u['end_to_end'][m['name']]['value'], u['end_to_end_measured'][m['name']]['value']
                row.append(fmt(v) if v == raw else f'{fmt(v)} ({fmt(raw)})')
            lines.append(f"| {m['name']} | {m['unit']} | " + ' | '.join(row) + ' |')
        row = [fmt(res[w]['untraced']['reference_ms']) for w in names]
        lines.append('| reference kernel, median over rounds | ms | ' + ' | '.join(row) + ' |')
        row = [fmt(res[w]['untraced']['setup_reference_ms']) for w in names]
        lines.append('| reference kernel, median over setups | ms | ' + ' | '.join(row) + ' |')
        row = [str(res[w]['untraced']['rounds']) for w in names]
        lines.append('| rounds measured (round_tail_ms is their p90) | count | ' + ' | '.join(row) + ' |')
        lines += ['', '## Tracing overhead (traced minus untraced episodes of the traced run)', '',
                  '| metric | unit | ' + ' | '.join(names) + ' |', '|---|---|' + '---:|' * len(names)]
        for m in ('rounds_per_s', 'round_p50_ms', 'round_tail_ms'):
            row = []
            for w in names:
                t = res[w]['traced']
                d = t['end_to_end_traced'][m]['value'] - t['end_to_end'][m]['value']
                row.append(f"{d:+.4g} ({100 * d / t['end_to_end'][m]['value']:+.1f}%)")
            lines.append(f"| {m} | {res[names[0]]['traced']['end_to_end'][m]['unit']} | " + ' | '.join(row) + ' |')
        lines += ['', '## Per layer (traced run)', '',
                  'A workload that does not use a layer reports 0 (shown as -).', '',
                  '| metric | unit | ' + ' | '.join(names) + ' | should move |',
                  '|---|---|' + '---:|' * len(names) + '---|']
        for m in manifest['per_layer']:
            row = []
            for w in names:
                v = res[w]['traced']['per_layer'][m['name']]['value']
                row.append('-' if v == 0 and not m['name'].startswith('trace.') else fmt(v))
            lines.append(f"| {m['name']} | {m['unit']} | " + ' | '.join(row) + f" | {should_move(m['name'])} |")
        lines += ['', 'Sizing the `nn` layers against a round: `nn.train_batches` × the per-batch timings '
                  '(every dense, batch-norm and ReLU forward and backward, the loss and the SGD step; an '
                  'upper bound, since frozen groups skip their backward pass):', '']
        step = [k for k in res[names[0]]['traced']['per_layer']
                if k.startswith('nn.') and k.endswith('_us') or k == 'opt.sgd_step_us']
        for w in names:
            pl = res[w]['traced']['per_layer']
            est = pl['nn.train_batches']['value'] * sum(pl[k]['value'] for k in step) / 1e3
            wall = pl['trace.round_wall_ms']['value']
            lines.append(f"- {w}: {fmt(pl['nn.train_batches']['value'])} batches x "
                         f"{fmt(sum(pl[k]['value'] for k in step))} us = {fmt(est)} ms of a {fmt(wall)} ms round")
        lines += ['', '## Where a round goes (traced run, ms per round)', '',
                  'Each instant of a round is split equally among the deepest traced calls active then;',
                  '`core.self` is the time no traced call covers. The shares add up to the round.', '']
        for w in names:
            att = res[w]['traced']['layer_wall_ms_per_round']
            total = sum(att.values())
            lines += [f'**{w}** ({total:.3g} ms per round)', '', '| span | ms per round | share |', '|---|---:|---:|']
            for k, v in sorted(att.items(), key=lambda kv: -kv[1]):
                lines.append(f'| {k} | {v:.4g} | {100 * v / total:.1f}% |')
            lines.append('')
        lines += ['## Output checks', '']
        for w in names:
            for mode in ('untraced', 'traced'):
                for c in res[w][mode]['checks']:
                    lines.append(f"- {w} ({mode}) {c['name']}: {'ok' if c['ok'] else 'FAILED'}, {c['detail']}")
        lines.append('')
    if os.path.exists(SPREAD):
        sp = json.load(open(SPREAD))
        st = sp['stamp']
        lines += ['## Steadiness', '',
                  f"Quartile spread (Q3 - Q1) / median of each end-to-end metric over seeds {sp['seeds']} "
                  f"at --seconds {sp['seconds']}, against the metric's bound; in brackets the largest "
                  "departure of a single run from the median, as a share of the median. "
                  f"Measured on CPU `{st['cpu']}`, nproc {st['nproc']}, GOMAXPROCS {st['gomaxprocs']}, "
                  f"{st['go_version']}, tensor kernel `{st['kernel']}`, commit `{st['commit']}`, "
                  f"source `{st['source_sha']}`.", '',
                  '| metric | bound | ' + ' | '.join(names) + ' |',
                  '|---|---:|' + '---:|' * len(names)]
        for m in manifest['end_to_end']:
            row = []
            for w in names:
                s = sp['workloads'][w][m['name']]
                row.append(f"{s['spread']:.3f} [{s['max_departure']:.3f}] (median {fmt(s['median'])})")
            lines.append(f"| {m['name']} | {m['bound']} | " + ' | '.join(row) + ' |')
        lines.append('')
    open(REPORT, 'w').write('\n'.join(lines))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument('mode', choices=['table', 'spread', 'render'])
    ap.add_argument('--seed', type=int, default=1)
    ap.add_argument('--seeds', default='1-10')
    ap.add_argument('--seconds', type=int)
    args = ap.parse_args()
    manifest = json.load(open(MANIFEST))
    seconds = args.seconds or manifest['run_seconds']
    names = [w['name'] for w in manifest['workloads']]
    if args.mode == 'table':
        res = {}
        for w in names:
            res[w] = {'untraced': run(w, args.seed, seconds, 0)[0], 'traced': run(w, args.seed, seconds, 1)[0]}
        json.dump(res, open(RESULTS, 'w'), indent=1)
    elif args.mode == 'spread':
        out = {'seeds': args.seeds, 'seconds': seconds, 'stamp': None, 'workloads': {}}
        for w in names:
            vals = {}
            for s in parse_seeds(args.seeds):
                rec, line = run(w, s, seconds, 0)
                st = {k: v for k, v in rec['stamp'].items() if k != 'seed'}
                if out['stamp'] not in (None, st):
                    sys.exit(f'{w} seed {s} ran on other code or another machine: {st} != {out["stamp"]}')
                out['stamp'] = st
                for k, v in line['metrics'].items():
                    vals.setdefault(k, []).append(v['value'])
            out['workloads'][w] = {}
            for m in manifest['end_to_end']:
                v = vals[m['name']]
                q = statistics.quantiles(v, n=4)
                med = statistics.median(v)
                spread = (q[2] - q[0]) / med if med else float('nan')
                dep = max(abs(x - med) for x in v) / med if med else float('nan')
                out['workloads'][w][m['name']] = {'median': med, 'spread': spread, 'max_departure': dep, 'values': v}
                print(f"{w:13s} {m['name']:22s} median {med:12.5g} spread {spread:.4f} "
                      f"max departure {dep:.4f} bound {m['bound']}")
        json.dump(out, open(SPREAD, 'w'), indent=1)
    render(manifest)


if __name__ == '__main__':
    main()
