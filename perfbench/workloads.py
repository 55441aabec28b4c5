"""Seeded request lists for each workload, their checks, and input reports.

A CLI request is ``{"argv": [...], "expect": {...}}``; a lookup call is
``{"op": "rank" | "unrank", "arg": ..., "expect": {...}}``. Requests are
plain JSON so that the measured run, the lookup worker and the replay
process all read the same list.

Sizes sit on fixed quantile grids of each workload's size distribution,
so a pass costs nearly the same under every seed; the seed draws the
order, the flags, the malformed requests, and every word and index the
program sees.
"""

from __future__ import annotations

import random
import statistics

from oracle import Oracle, all_valid, expected_count, strictly_increasing, word_class

WORKLOADS = ("cli", "lookup")

# Malformed CLI requests and the code each must report.
_MALFORMED_CODES = {"word": "NOT_UNIQUE", "too_long": "LIMIT_EXCEEDED", "negative": "USAGE"}


def log_grid(lo: float, hi: float, count: int) -> list[int]:
    """``count`` sizes spread log-uniformly from ``lo`` to ``hi`` inclusive."""
    return [round(lo * (hi / lo) ** (j / (count - 1))) for j in range(count)]


def random_word(rng: random.Random, length: int, first: str) -> str:
    """A random Motzkin word of ``length`` >= 2 starting with ``first``."""
    symbols = [first]
    depth = 1 if first == "(" else 0
    for position in range(1, length):
        remaining = length - position - 1
        choices = []
        if depth <= remaining:
            choices.append("0")
        if depth + 1 <= remaining:
            choices.append("(")
        if depth:
            choices.append(")")
        symbol = rng.choice(choices)
        symbols.append(symbol)
        depth += {"0": 0, "(": 1, ")": -1}[symbol]
    return "".join(symbols)


def malformed_word(rng: random.Random, length: int) -> str:
    """A word that ``rank`` must reject: inherited or not balanced."""
    if rng.random() < 0.5:
        return random_word(rng, length, "0")
    return random_word(rng, length, "(") + "("


def _malformed_cli(rng: random.Random) -> dict:
    kind = rng.choice(sorted(_MALFORMED_CODES))
    if kind == "word":
        argv = ["rank", "--word", malformed_word(rng, rng.randint(2, 12))]
    elif kind == "too_long":
        argv = ["enumerate", "--length", "17"]
    else:
        argv = ["numbers", "--max", str(-rng.randint(1, 5))]
    return {"argv": argv, "expect": {"error": _MALFORMED_CODES[kind]}}


def _table(command: str, n: int, rng: random.Random, method: str | None = None) -> dict:
    bfile = rng.random() < 0.5
    argv = [command, "--max", str(n)] + (["--method", method] if method else []) + (["--bfile"] if bfile else [])
    target = "motzkin" if command == "numbers" else "difference"
    return {"argv": argv, "expect": {"table": target, "n": n, "bfile": bfile}}


def build_cli(rng: random.Random, oracle: Oracle) -> list[dict]:
    """Every CLI subcommand, each at sizes from trivial to the largest
    that still leaves several samples of each request in a run."""
    requests = []
    # Tables and series: O(n^2) convolution, Fraction kernels, big-int printing.
    for n in log_grid(8, 1000, 4):
        requests.append(_table("numbers", n, rng))
        requests.append(_table("diff", n, rng, "subtraction"))
        requests.append(_table("diff", n, rng, "convolution"))
    for order in log_grid(4, 250, 3):
        for target, method in (("motzkin", "functional"), ("motzkin", "closed"), ("nat", "product"), ("nat", "linear")):
            argv = ["series", "--target", target, "--order", str(order), "--method", method]
            table = "motzkin" if target == "motzkin" else "difference"
            requests.append({"argv": argv, "expect": {"table": table, "n": order, "bfile": False}})
    # The derivative cycle: IntPoly products and exact divisions.
    requests += [
        {"argv": ["symdiff", "--max", str(k)], "expect": {"table": "difference", "n": k, "bfile": False}}
        for k in log_grid(2, 32, 8)
    ]
    requests += [{"argv": ["verify", "--max", str(n)], "expect": {"verify": True}} for n in (4, 24)]
    # Listings: the enumeration DFS and the per-line print loop. Each
    # length costs about three times the one below; 15 and 16 would
    # leave too few samples of each request in a run.
    requests += [
        {"argv": ["enumerate", "--length", str(length), "--filter", kind], "expect": {"listing": kind, "length": length}}
        for kind in ("all", "unique", "inherited")
        for length in (8, 11, 14)
    ]
    requests += [_malformed_cli(rng) for _ in range(2)]
    rng.shuffle(requests)
    return requests


def build_lookup(rng: random.Random, oracle: Oracle) -> list[dict]:
    calls = []
    for length in log_grid(20, 400, 12):
        low, high = oracle.block(length)
        for _ in range(12):
            calls.append({"op": "unrank", "arg": rng.randrange(low, high), "expect": {}})
            calls.append({"op": "rank", "arg": random_word(rng, length, "("), "expect": {}})
    for _ in range(6):
        word = malformed_word(rng, rng.choice(log_grid(20, 400, 12)))
        calls.append({"op": "rank", "arg": word, "expect": {"error": "NOT_UNIQUE"}})
    rng.shuffle(calls)
    return calls


_BUILDERS = {"cli": build_cli, "lookup": build_lookup}


def build(workload: str, seed: int, oracle: Oracle) -> list[dict]:
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"), oracle)


# ----------------------------------------------------------------- checks


def _expected_table(oracle: Oracle, expect: dict) -> str:
    n = expect["n"]
    values = oracle.motzkin(n) if expect["table"] == "motzkin" else oracle.difference(n)
    if expect["bfile"]:
        return "".join(f"{i} {v}\n" for i, v in enumerate(values))
    return "".join(f"{v}\n" for v in values)


def check_cli(oracle: Oracle, expect: dict, code: int, out: str, err: str) -> bool:
    """Whether one CLI request ended as documented, judged by the oracle."""
    if "Traceback" in err:
        return False
    if "error" in expect:
        lines = err.strip().splitlines()
        return code == 1 and not out and bool(lines) and lines[-1].startswith(f"error: {expect['error']}: ")
    if code != 0:
        return False
    if "table" in expect:
        return out == _expected_table(oracle, expect)
    if "verify" in expect:
        lines = out.splitlines()
        return bool(lines) and all(line.startswith("PASS ") for line in lines)
    length, kind = expect["length"], expect["listing"]
    count = expected_count(oracle, length, kind)
    lines = out.split("\n")
    if len(lines) < 2 or lines[-1] != "" or lines[-2] != f"count={count}":
        return False
    listing = lines[:-2]
    if len(listing) != count or set(map(len, listing)) - {length} or not all_valid(listing):
        return False
    if kind != "all" and {word_class(w) for w in listing} - {kind}:
        return False
    return strictly_increasing(listing)


def inverse_calls(calls: list[dict], results: list) -> list[dict]:
    """The round trip of each successful call: rank of an unranked word and vice versa."""
    inverse = []
    for call, (status, value, _) in zip(calls, results):
        if status == "ok":
            inverse.append({"op": "rank" if call["op"] == "unrank" else "unrank", "arg": value, "expect": {}})
    return inverse


def check_lookup(oracle: Oracle, calls: list[dict], results: list, inverse_results: list) -> list[bool]:
    """Per-call verdicts: the documented error, or a unique word whose index
    lies in its length block and which round-trips. If the words are not
    strictly increasing in their indexes, every call fails."""
    if len(results) != len(calls) or len(inverse_results) != len(inverse_calls(calls, results)):
        return [False] * len(calls)
    returned = iter(inverse_results)
    verdicts, pairs = [], set()
    for call, (status, value, _) in zip(calls, results):
        back = next(returned) if status == "ok" else None
        if "error" in call["expect"]:
            verdicts.append(status == "error" and value == ["NotUniqueError", call["expect"]["error"]])
            continue
        index, word = (call["arg"], value) if call["op"] == "unrank" else (value, call["arg"])
        ok = (
            back is not None
            and back[:2] == ["ok", call["arg"]]
            and isinstance(word, str)
            and isinstance(index, int)
            and all_valid([word])
            and word_class(word) == "unique"
        )
        if ok:
            low, high = oracle.block(len(word))
            ok = low <= index < high
        verdicts.append(ok)
        if ok:
            pairs.add((index, word))
    ordered = sorted(pairs)
    indexes = [index for index, _ in ordered]
    if len(set(indexes)) != len(indexes) or not strictly_increasing([word for _, word in ordered]):
        return [False] * len(calls)
    return verdicts


# ---------------------------------------------------------------- reports


def _quantiles(values: list[int]) -> list[float]:
    if len(values) < 2:
        return values * 5
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [min(values), q1, q2, q3, max(values)]


def input_report(workload: str, requests: list[dict], oracle: Oracle) -> dict:
    """Properties of the generated inputs that the program's speed depends on."""
    by_command: dict[str, list[int]] = {}
    malformed = 0
    if workload == "lookup":
        longest, reused = 0, 0
        for call in requests:
            length = len(call["arg"]) if call["op"] == "rank" else oracle.length_of_index(call["arg"])
            by_command.setdefault(call["op"], []).append(length)
            malformed += "error" in call["expect"]
            reused += length <= longest
            longest = max(longest, length)
        extra = {"reuse_share": reused / len(requests)}
    else:
        for request in requests:
            argv = request["argv"]
            size_flag = next(flag for flag in ("--max", "--order", "--length", "--word") if flag in argv)
            value = argv[argv.index(size_flag) + 1]
            by_command.setdefault(argv[0], []).append(len(value) if size_flag == "--word" else int(value))
            malformed += "error" in request["expect"]
        extra = {}
    return {
        "requests": len(requests),
        "requests_by_subcommand": {k: len(v) for k, v in sorted(by_command.items())},
        "size_quantiles": {k: _quantiles(v) for k, v in sorted(by_command.items())},
        "malformed_share": malformed / len(requests),
        **extra,
    }
