#!/usr/bin/env python3
"""The paper claims the pinned runs must show, checked on their stats.

usage: tests/claims.py CLAIM FILE
       tests/claims.py --self-test BASELINES_DIR

CLAIM FILE checks one claim on the --stats-json lines in FILE (deep-wear reads
its entry of a tests/flashcheck_matrix.sh output) and exits 1 naming what
failed. tests/check.sh runs each claim on the output its check has just
diffed against a baseline.

--self-test builds each claim's input from the committed baselines and
passes only when every claim holds on it and fails on a copy with one value
changed, so a claim that could not fail is caught.
"""
import copy
import json
import os
import sys

HOST_TIME = ('wall_clock_us', 'replay_ops_per_sec', 'threads')
DEEP_WEAR = '=== flashcheck --aging=60 --faults --fault-seed=1 --shards=4 --stats-json=aging-deep.json'
RECOVERY_BUDGET_US = 2_400_000  # the paper's worst case, Figure 5


class ClaimFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise ClaimFailed(message)


def section(lines, header):
    """One matrix entry: the lines from `header` to the next "=== " line."""
    start = lines.index(header)
    end = next((i for i in range(start + 1, len(lines)) if lines[i].startswith('=== ')), len(lines))
    return lines[start:end]


def rows(lines):
    return [json.loads(line) for line in lines if line.startswith('{')]


def row(runs, **match):
    """The last run whose fields equal `match`."""
    found = [r for r in runs if all(r[k] == v for k, v in match.items())]
    require(found, f'no run with {match}')
    return found[-1]


def thread_independence(runs):
    """Virtual-time metrics, latency percentiles included, do not depend on
    the number of replay threads."""
    by_config = {}
    for r in runs:
        virtual = {k: v for k, v in r.items() if k not in HOST_TIME}
        by_config.setdefault((r['workload'], r['system']), []).append(virtual)
    require(by_config, 'no runs')
    for key, same in by_config.items():
        for k in ('p50_us', 'p95_us', 'p99_us', 'p999_us', 'depth'):
            require(k in same[0], f'missing latency field {k} in {key}')
        require(all(r == same[0] for r in same[1:]), f'thread-dependent metrics for {key}')
        require(same[0]['stale_reads'] == 0, f'stale reads in {key}')
    return f'{len(runs)} runs over {len(by_config)} configs are thread-count independent'


def admission(runs):
    """The selective policies cut flash page writes against admit-all."""
    for wl in ('homes', 'usr'):
        base = row(runs, workload=wl, policy='admit-all')['flash']['page_writes']
        for policy in ('ghost-lru', 'freq-sketch'):
            saved = row(runs, workload=wl, policy=policy)
            require(saved['flash']['page_writes'] < base, f'{policy} did not cut flash writes on {wl}')
            require(saved['policy_stats']['rejects'] > 0, f'{policy} never rejected on {wl}')
    return 'ghost-lru and freq-sketch cut flash writes on homes and usr'


def kv_packing(runs):
    """At every policy, slab packing cuts page programs per admitted Set at
    least 3x against one object per slab, and loses no hits."""
    for policy in ('admit-all', 'ghost-lru', 'freq-sketch'):
        naive = row(runs, placement='naive', policy=policy)['kv']
        for placement in ('packed-1', 'packed-2', 'packed-4'):
            packed = row(runs, placement=placement, policy=policy)['kv']['flash_writes_per_set']
            require(packed * 3 <= naive['flash_writes_per_set'],
                    f'{placement}/{policy}: {packed} writes/set is not a 3x cut '
                    f'against naive {naive["flash_writes_per_set"]}')
        require(row(runs, placement='packed-1', policy=policy)['kv']['hits'] >= naive['hits'],
                f'{policy}: packing lost hits at equal capacity')
    return 'packing cuts flash writes per Set at least 3x at every policy'


def envelope(runs):
    """Depth 16 sustains at least 8x the depth-1 random-read IOPS on every
    device: the plane and channel overlap the pipeline models."""
    for dev in ('ssd', 'ssc', 'sscr'):
        d1 = row(runs, device=dev, depth=1, pattern='rand_read')['iops']
        q = row(runs, device=dev, depth=16, pattern='rand_read')
        require(q['iops'] >= 8 * d1, f'{dev}: depth-16 {q["iops"]} IOPS < 8x depth-1 {d1}')
        require(q['p50_us'] <= q['p95_us'] <= q['p99_us'] <= q['p999_us'] <= q['max_us'],
                f'{dev}: depth-16 percentiles not monotone')
    return 'depth 16 sustains at least 8x depth-1 IOPS'


def recovery(runs):
    """Recovery fits the paper's 2.4 s worst case, and its breakdown adds up."""
    require(runs, 'no recovery runs')
    for r in runs:
        p = r['persist']
        total = p['last_recovery_us']
        require(0 < total <= RECOVERY_BUDGET_US,
                f'{r["workload"]}: recovery {total} us against the {RECOVERY_BUDGET_US} us budget')
        require(total == p['checkpoint_load_us'] + p['log_replay_us'] + p['rebuild_us'],
                f'{r["workload"]}: recovery breakdown does not add up to {total} us')
    return f'{len(runs)} recoveries within budget, breakdowns add up'


def deep_wear(runs):
    """The sharded cache keeps serving through at least 30% retired
    capacity, with patrol repairs and no undetected corruption."""
    require(len(runs) == 1, f'want one stats line, got {len(runs)}')
    a, ftl = runs[0]['aging'], runs[0]['ftl']
    require(a['violations'] == 0 and a['undetected_corruptions'] == 0, f'violations: {a}')
    require(a['serving_retired_pct'] >= 30.0,
            f'stopped serving at {a["serving_retired_pct"]}% retired (< 30%)')
    require(ftl['patrol_repairs'] > 0, 'patrol never repaired a block')
    return f'served through {a["serving_retired_pct"]}% retirement'


def wear_leveling(runs):
    """Static wear leveling migrates and ends with a lower erase-count CV."""
    for r in runs:
        require(r['stale_reads'] == 0, f'stale reads in {r["workload"]}/{r["arm"]}')
    for wl in ('homes', 'usr'):
        off, on = row(runs, workload=wl, arm='wl-off'), row(runs, workload=wl, arm='wl-on')
        require(on['wl_migrations'] > 0, f'{wl}: wear leveling never migrated')
        require(on['erase_cv'] < off['erase_cv'],
                f'{wl}: wear leveling did not lower erase CV ({off["erase_cv"]} -> {on["erase_cv"]})')
    return 'wear leveling lowers erase CV on homes and usr'


CLAIMS = {
    'thread-independence': thread_independence,
    'admission': admission,
    'kv-packing': kv_packing,
    'envelope': envelope,
    'recovery': recovery,
    'deep-wear': deep_wear,
    'wear-leveling': wear_leveling,
}


def self_test(baselines):
    def read(name):
        with open(os.path.join(baselines, name)) as f:
            return f.read().splitlines()

    paper = read('paper_matrix_baseline.txt')
    fig3 = rows(section(paper, '=== bench_fig3_performance --stats-json'))

    def at_four_threads(runs):
        row(runs, threads=4)['p99_us'] += 0.01

    def ghost_writes_as_admit_all(runs):
        row(runs, workload='homes', policy='ghost-lru')['flash']['page_writes'] = row(
            runs, workload='homes', policy='admit-all')['flash']['page_writes']

    def packed_ratio_2_9(runs):
        naive = row(runs, placement='naive', policy='admit-all')['kv']['flash_writes_per_set']
        row(runs, placement='packed-1', policy='admit-all')['kv']['flash_writes_per_set'] = naive / 2.9

    def depth16_at_7_9x(runs):
        d1 = row(runs, device='ssd', depth=1, pattern='rand_read')['iops']
        row(runs, device='ssd', depth=16, pattern='rand_read')['iops'] = 7.9 * d1

    def breakdown_1us_off(runs):
        runs[0]['persist']['rebuild_us'] += 1

    def retired_29_9(runs):
        runs[0]['aging']['serving_retired_pct'] = 29.9

    def wl_on_cv_as_off(runs):
        row(runs, workload='homes', arm='wl-on')['erase_cv'] = row(
            runs, workload='homes', arm='wl-off')['erase_cv']

    cases = [  # claim, input that must pass, the one change that must fail it
        ('thread-independence', fig3 + [dict(r, threads=4) for r in fig3], at_four_threads),
        ('admission', rows(read('admission_smoke_baseline.json')), ghost_writes_as_admit_all),
        ('kv-packing', rows(read('kv_smoke_baseline.json')), packed_ratio_2_9),
        ('envelope', rows(read('envelope_smoke_baseline.json')), depth16_at_7_9x),
        ('recovery', rows(section(paper, '=== bench_fig5_recovery --stats-json')),
         breakdown_1us_off),
        ('deep-wear', rows(section(read('flashcheck_matrix_baseline.txt'), DEEP_WEAR)),
         retired_29_9),
        ('wear-leveling', rows(read('aging_smoke_baseline.json')), wl_on_cv_as_off),
    ]
    status = 0
    for name, runs, mutate in cases:
        try:
            CLAIMS[name](runs)
        except ClaimFailed as e:
            print(f'FAIL: {name} fails on its baseline input: {e}')
            status = 1
            continue
        mutated = copy.deepcopy(runs)
        mutate(mutated)
        try:
            CLAIMS[name](mutated)
            print(f'FAIL: {name} still holds after {mutate.__name__}')
            status = 1
        except ClaimFailed as e:
            print(f'{name}: holds on its baseline input, fails after {mutate.__name__}: {e}')
    return status


def main(argv):
    if len(argv) == 3 and argv[1] == '--self-test':
        return self_test(argv[2])
    if len(argv) != 3 or argv[1] not in CLAIMS:
        print(__doc__.split('\n\n')[1] + '\nCLAIM is one of: ' + ', '.join(CLAIMS), file=sys.stderr)
        return 2
    with open(argv[2]) as f:
        lines = f.read().splitlines()
    if argv[1] == 'deep-wear':
        lines = section(lines, DEEP_WEAR)
    try:
        print(f'{argv[1]}: {CLAIMS[argv[1]](rows(lines))}')
    except ClaimFailed as e:
        print(f'claim {argv[1]} fails: {e}', file=sys.stderr)
        return 1
    return 0


if __name__ == '__main__':
    sys.exit(main(sys.argv))
