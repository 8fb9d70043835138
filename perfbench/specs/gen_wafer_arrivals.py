"""Writes wafer_arrivals.json, the request trace of the wafer_ni_balance
workload: Poisson arrivals at 400 req/s for 2 s of simulated time, the four
scenarios in turn, prompts of 64-384 tokens and short 4-32 token outputs,
so a pass of a few hundred engine steps completes a few hundred requests.

Run from the repository root: python3 perfbench/specs/gen_wafer_arrivals.py
"""

import json
import random

RATE = 400.0
DURATION = 2.0
SCENARIOS = ["privacy", "chat", "coding", "math"]

rng = random.Random(2026)
rows = []
t = 0.0
while True:
    t += rng.expovariate(RATE)
    if t >= DURATION:
        break
    rows.append([round(t, 9), SCENARIOS[len(rows) % 4], rng.randint(64, 384),
                 rng.randint(4, 32), "interactive"])

lines = ",\n".join("    " + json.dumps(row) for row in rows)
with open("perfbench/specs/wafer_arrivals.json", "w") as f:
    f.write('{\n  "schema": "moentwine/trace/v1",\n  "name": "wafer_arrivals",\n'
            f'  "requests": [\n{lines}\n  ]\n}}\n')
