"""Acceptance suite: one test per release criterion, strictest tolerances.

Every criterion prints a single PASS line on success (run with ``-s`` or
``-v`` to see them); any assertion failure fails the criterion outright.
Criterion 6 is statistical and is reported, not asserted.
"""

import time

from triplication import (
    CongruousTable,
    Pairing,
    Scenario,
    StarterKind,
    admissible_keys,
    build_template,
    check_congruous,
    classify,
    compile_instance,
    conjugate,
    derive_index_structures,
    enumerate_strong_starters,
    epicycloidal,
    one_starter_table,
    random_tt,
    recover_starter,
    solve,
    validate,
)

import golden
from oracles import solutions_by_color_classes


def unordered(pairs):
    return tuple(sorted(tuple(sorted(p)) for p in pairs))


# -------------------------------------------------------------- criterion 1


def test_criterion_1_golden_tables():
    t0 = time.perf_counter()

    # template over one starter, key 3 (exact, duplicate pair included)
    t = Pairing(7, golden.STARTER_7_A)
    assert build_template(t, t, conjugate(t), 3) == tuple(golden.TEMPLATE_7_KEY3)

    # template over the multiplier-2 pseudostarter pair, key 3
    e2 = epicycloidal(7, 2)
    assert build_template(t, e2, conjugate(e2), 3) == tuple(golden.TEMPLATE_7_EPI2_KEY3)
    for mu, expected in golden.EPI_7.items():
        assert epicycloidal(7, mu).pairs == tuple(expected)

    # order-7 key-1 pipeline: carries, printed solution, exact recovery
    tt7 = one_starter_table(Pairing(7, golden.STARTER_7_B), 1)
    assert tt7.pairs == tuple(golden.TABLE_7_KEY1)
    _, _, carries = derive_index_structures(tt7)
    assert carries.delta == golden.TABLE_7_KEY1_DELTA
    assert {i: carries.sigma[i] for i in golden.TABLE_7_KEY1_SIGMA_WEAK} == (
        golden.TABLE_7_KEY1_SIGMA_WEAK
    )
    sc7 = Scenario("carry", 7)
    ct7 = CongruousTable(kind="carry", r=3, values=tuple(golden.TABLE_7_KEY1_SOLUTION_CARRY))
    assert check_congruous(tt7, ct7, sc7)
    rec7 = recover_starter(tt7, ct7, sc7)
    assert unordered(rec7.pairs) == unordered(golden.TABLE_7_KEY1_RECOVERED)

    # order-15 pipeline: index structures, printed solution, exact recovery
    tt15 = one_starter_table(Pairing(15, golden.STARTER_15), 4)
    assert tt15.pairs == tuple(golden.TABLE_15_KEY4)
    mono, weak15, _ = derive_index_structures(tt15)
    assert weak15.by_sum == golden.TABLE_15_KEY4_WEAK
    assert {c: set(ps) for c, ps in mono.items()} == golden.TABLE_15_KEY4_MONO
    sc15 = Scenario("mod", 15)
    ct15 = CongruousTable(kind="mod", r=9, values=tuple(golden.TABLE_15_KEY4_SOLUTION_MOD9))
    assert check_congruous(tt15, ct15, sc15)
    rec15 = recover_starter(tt15, ct15, sc15)
    assert rec15.pairs == tuple(golden.TABLE_15_KEY4_RECOVERED)
    assert rec15.modulus == 45
    assert classify(rec15).kind == StarterKind.STRONG_STARTER

    # generalized remainder lift
    assert Scenario("mod", 45).decode((22, 13)) == 67

    assert time.perf_counter() - t0 < 5.0
    print("\nACCEPTANCE 1 (golden tables): PASS")


# -------------------------------------------------------------- criterion 2


def test_criterion_2_admissible_keys():
    # order 9, one-starter base
    t9 = Pairing(9, golden.STARTER_9)
    assert set(admissible_keys(t9, t9, conjugate(t9))) == golden.STARTER_9_KEYS

    # order 11: four empty triples up to swapping the last two bases, five
    # keys everywhere else
    R = {k: Pairing(11, v) for k, v in golden.DISJOINT_11.items()}
    for i in R:
        for j in R:
            for k in R:
                if j == k:
                    continue
                K = admissible_keys(R[i], R[j], R[k])
                if {(i, j, k), (i, k, j)} & golden.DISJOINT_11_EMPTY:
                    assert K == frozenset(), (i, j, k)
                else:
                    assert len(K) == 5, (i, j, k)

    # order 19: all 24 rows of the key table
    P = {k: Pairing(19, v) for k, v in golden.STARTERS_19.items()}
    for (i, j, k), expected in golden.KEY_TABLE_19.items():
        assert set(admissible_keys(P[i], P[j], P[k])) == expected, (i, j, k)

    # order 13 three-starter case
    r = Pairing(13, golden.TRIPLE_13_R)
    s = Pairing(13, golden.TRIPLE_13_S)
    tt = Pairing(13, golden.TRIPLE_13_T)
    assert set(admissible_keys(s, r, tt)) == golden.TRIPLE_13_SRT_KEYS

    # key-count law over every brute-force-enumerated strong starter
    for m in (5, 7, 9, 11):
        for st in enumerate_strong_starters(m):
            assert len(admissible_keys(st, st, conjugate(st))) == (m - 1) // 2

    print("\nACCEPTANCE 2 (admissible keys): PASS")


# -------------------------------------------------------------- criterion 3


def test_criterion_3_unsat_certification():
    for pairs, m in ((golden.UNSOLVABLE_11, 11), (golden.UNSOLVABLE_13, 13)):
        tt = validate(pairs, m)  # both validate as tables
        for kind in ("mod", "carry"):
            t0 = time.perf_counter()
            out = solve(compile_instance(tt, Scenario(kind, m)), mode="first")
            elapsed = time.perf_counter() - t0
            assert out.status == "unsat", (m, kind)
            assert elapsed < 10.0, (m, kind, elapsed)
    print("\nACCEPTANCE 3 (unsat certification): PASS")


# -------------------------------------------------------------- criterion 4


def test_criterion_4_solvability(tmp_path):
    from triplication.cli import main
    import json

    # order 9, every admissible key, problem modulo 27
    t9 = Pairing(9, golden.STARTER_9)
    sc9 = Scenario("mod", 9)
    assert sc9.r == 27
    for key in sorted(golden.STARTER_9_KEYS):
        tt = one_starter_table(t9, key)
        out = solve(compile_instance(tt, sc9), mode="first")
        assert out.status == "solution", key
        rec = recover_starter(tt, out.tables[0], sc9)
        assert classify(rec).kind == StarterKind.STRONG_STARTER

    # order 7, every (multiplier, key) combination
    t7 = Pairing(7, golden.STARTER_7_A)
    for mu, keys in golden.EPI_7_KEYS.items():
        e = epicycloidal(7, mu)
        for key in sorted(keys):
            tt = validate(build_template(t7, e, conjugate(e), key), 7)
            for kind in ("mod", "carry"):
                sc = Scenario(kind, 7)
                out = solve(compile_instance(tt, sc), mode="first")
                assert out.status == "solution", (mu, key, kind)
                rec = recover_starter(tt, out.tables[0], sc)
                assert classify(rec).kind == StarterKind.STRONG_STARTER

    # frozen sample starters re-verify through the CLI
    for name, order, sample in (
        [(f"o27k{k}", 27, v) for k, v in golden.ORDER_27_SAMPLES.items()]
        + [(f"o21m{mu}k{k}", 21, v) for (mu, k), v in golden.EPI_7_SAMPLE_STARTERS.items()]
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"order": order, "pairs": [list(p) for p in sample]}))
        assert main(["verify", str(path)]) == 0, name

    print("\nACCEPTANCE 4 (solvability reproduction): PASS")


# -------------------------------------------------------------- criterion 5


def test_criterion_5a_recovered_starters_always_strong():
    produced = 0
    for m in (5, 7, 9, 11):
        per_order = 0
        seed = 0
        while per_order < 250:
            tt = random_tt(m, seed=seed)
            sc = Scenario("carry" if seed % 2 else "mod", m)
            out = solve(compile_instance(tt, sc), mode="first")
            seed += 1
            if out.status != "solution":
                continue  # rare unsolvable sample; not a recovery case
            rec = recover_starter(tt, out.tables[0], sc)
            assert classify(rec).kind == StarterKind.STRONG_STARTER
            per_order += 1
            produced += 1
    assert produced == 1000
    print("\nACCEPTANCE 5a (1000 recoveries all strong): PASS")


def test_criterion_5b_scenario_independence():
    tables = [(5, s) for s in range(8)] + [(7, s) for s in range(8)] + [
        (9, s) for s in range(4)
    ]
    assert len(tables) == 20
    for m, seed in tables:
        tt = random_tt(m, seed=1000 + seed)
        recovered = {}
        counts = {}
        for kind in ("mod", "carry"):
            sc = Scenario(kind, m)
            out = solve(compile_instance(tt, sc), mode="all")
            assert out.status in ("solution", "unsat")
            counts[kind] = out.count
            recovered[kind] = {
                unordered(recover_starter(tt, ct, sc).pairs) for ct in out.tables
            }
        assert counts["mod"] == counts["carry"], (m, seed)
        assert recovered["mod"] == recovered["carry"], (m, seed)
    print("\nACCEPTANCE 5b (scenario-independent starter sets): PASS")


def test_criterion_5c_encode_decode_and_box_ops_exhaustive():
    mismatches = 0
    for m in (7, 9, 15):
        for kind in ("mod", "carry"):
            sc = Scenario(kind, m)
            n = 3 * m
            enc = []
            for x in range(n):
                e = sc.encode(x)
                if sc.decode(e) != x:
                    mismatches += 1
                enc.append(e)
            if len(set(enc)) != n:
                mismatches += 1
            for x in range(n):
                a = enc[x]
                for y in range(n):
                    b = enc[y]
                    if sc.box_add(a, b) != sc.f((x + y) % n):
                        mismatches += 1
                    if sc.box_sub(a, b) != sc.f((x - y) % n):
                        mismatches += 1
    assert mismatches == 0
    print("\nACCEPTANCE 5c (bijection and box-operation oracle): PASS")


def test_criterion_5d_solver_completeness_against_enumeration():
    checked = 0
    for m in (5, 7):
        for seed in range(25):
            tt = random_tt(m, seed=2000 + seed)
            kind = "mod" if seed % 2 == 0 else "carry"
            sc = Scenario(kind, m)
            got = {t.values for t in solve(compile_instance(tt, sc), mode="all").tables}
            want = solutions_by_color_classes(tt, sc)
            assert got == want, (m, seed, kind)
            checked += 1
    assert checked == 50
    print("\nACCEPTANCE 5d (solver completeness on 50 tables): PASS")


# -------------------------------------------------------------- criterion 6


def test_criterion_6_scaled_random_sampling_report():
    t0 = time.perf_counter()
    report = {}
    for m in (7, 9, 11):
        n_unsat = 0
        n_aborted = 0
        for index in range(200):
            tt = random_tt(m, seed=31_000 + 97 * m + index)
            out = solve(
                compile_instance(tt, Scenario("carry", m)),
                mode="first",
                budget=2_000_000,
            )
            if out.status == "unsat":
                n_unsat += 1
            elif out.status == "aborted":
                n_aborted += 1
        report[m] = (200 - n_aborted, n_unsat, n_aborted)
    elapsed = time.perf_counter() - t0
    print("\nACCEPTANCE 6 (scaled random sampling, reported not asserted):")
    for m, (n, n_unsat, n_aborted) in report.items():
        ref_n, ref_unsat = golden.RANDOM_TT_REFERENCE[m]
        print(
            f"  m={m}: N={n} unsolvable={n_unsat} aborted={n_aborted} "
            f"(reference rate {ref_unsat}/{ref_n})"
        )
    print(f"  elapsed {elapsed:.1f}s")
    # sanity only: full samples, no aborts, counts in range
    for m, (n, n_unsat, n_aborted) in report.items():
        assert n == 200 and n_aborted == 0
        assert 0 <= n_unsat <= 200
    assert elapsed < 600
    print("ACCEPTANCE 6 (scaled random sampling): PASS")
