#!/usr/bin/env python3
"""Fill EXPERIMENTS.md's PLACEHOLDER-RESULTS from repro_stdout.txt."""
import re, sys

stdout = open('repro_stdout.txt').read()

def grab(title):
    """Extract a rendered table starting at `title` until a blank line."""
    idx = stdout.find(title)
    if idx < 0:
        return f"(missing: {title})"
    block = stdout[idx:]
    lines = []
    for line in block.splitlines():
        if not line.strip() and lines:
            break
        lines.append(line)
    return "\n".join(lines)

sections = []
sections.append("## Table 2 — test accuracy per hardware × task × variant\n\n"
  "Paper: stddevs 0.05–0.91 % over 10 replicas of full-scale 200-epoch runs; "
  "mean accuracies 62.0/93.3/73.4/76.6 %. Measured means anchor within a few "
  "points of the paper's (see the comparison table); stddevs are larger at "
  "demo scale as expected.\n\n```\n" + grab("Table 2:") + "\n```\n\n```\n" +
  grab("Table 2 paper-vs-measured") + "\n```\n")
sections.append("## Figure 1 — stability by noise source (V100)\n\n"
  "Paper: both ALGO and IMPL significant; ALGO ≳ IMPL; small CNN worst "
  "(churn ≈ 0.2–0.4 vs ResNet18 ≈ 0.06; IMPL churn for ResNet50/ImageNet "
  "14.68 % vs ALGO 14.89 %).\n\n```\n" + grab("Figure 1:") + "\n```\n")
sections.append("## Figure 2 — batch-norm ablation\n\n"
  "Paper: stddev(acc) 0.86 % without BN → 0.30 % with BN.\n\n```\n" +
  grab("Figure 2 (batch-norm ablation)") + "\n```\n")
sections.append("## Table 3 — CelebA subgroup distribution\n\n"
  "Paper: Male positives 0.8 % of all samples (≈2 % within males), Old "
  "positives 2.5 %; Male 41.9 %, Young 77.9 % of the population.\n\n```\n" +
  grab("Table 3:") + "\n```\n")
sections.append("## Figure 3 / Table 5 — subgroup stability\n\n"
  "Paper: Old accuracy-stddev up to 3.31×, Male FNR-stddev up to 4.60× the "
  "population level; underrepresented groups dominate in every variant.\n\n```\n" +
  grab("Table 5 [ALGO+IMPL]") + "\n\n" + grab("Table 5 [ALGO]") + "\n\n" +
  grab("Table 5 [IMPL]") + "\n```\n")
sections.append("## Figure 4 — per-class vs overall variance (V100)\n\n"
  "Paper: max per-class stddev up to 4× (CIFAR-10) and 23× (CIFAR-100) the "
  "top-line stddev.\n\n```\n" + grab("Figure 4:") + "\n```\n")
sections.append("## Figure 5 — accelerator comparison\n\n"
  "Paper: TPU lowers churn/L2 under ALGO+IMPL (deterministic by design, "
  "IMPL exactly 0); Tensor Cores remain as noisy as CUDA cores; stddev is "
  "less sensitive to removing single sources than churn/L2.\n\n```\n" +
  grab("Figure 5:") + "\n```\n")
sections.append("## Figure 6 — data-order-only noise (TPU)\n\n"
  "Paper: divergence at every batch size including one full-dataset batch "
  "where all gradients are mathematically identical.\n\n```\n" +
  grab("Figure 6:") + "\n```\n")
fig7_head = grab("Figure 7 [Default mode]").splitlines()[:10]
fig7_det = grab("Figure 7 [TF-deterministic mode]").splitlines()[:10]
sections.append("## Figure 7 — top-20 kernels, default vs deterministic\n\n"
  "Paper: deterministic mode concentrates time in a narrower kernel set. "
  "Measured: fewer distinct kernels, no nondeterministic algorithm scheduled, "
  "larger total time (first rows shown; full profile in results/fig7.json).\n\n```\n"
  + "\n".join(fig7_head) + "\n...\n\n" + "\n".join(fig7_det) + "\n...\n```\n")
sections.append("## Figure 8 (left) — overhead across ten networks\n\n"
  "Paper: range 101–211 % (P100) and 101–196 % (T4); VGG-19 185 % on V100; "
  "MobileNet ≈ 101 %.\n\n```\n" + grab("Figure 8 (left)") + "\n```\n")
sections.append("## Figure 8 (right) — overhead vs filter size\n\n"
  "Paper: 284–746 % (P100), 129–241 % (V100), 117–196 % (T4); monotone in k.\n\n```\n"
  + grab("Figure 8 (right)") + "\n```\n\n```\n" +
  grab("Figure 8 (right) paper-vs-measured") + "\n```\n")
sections.append("## Figures 9/10 — Figure 1 on P100 / RTX5000\n\n"
  "Paper: same qualitative picture as V100 across hardware.\n\n```\n" +
  grab("Figure 9:") + "\n\n" + grab("Figure 10:") + "\n```\n")
sections.append("## Extensions (beyond the paper)\n\n"
  "The parallelism→noise ablation (§3.3's CUDA-core hypothesis) and the "
  "per-source ALGO decomposition.\n\n```\n" +
  grab("Extension: IMPL noise vs accumulation-lane count") + "\n\n" +
  grab("Extension: per-source decomposition") + "\n```\n")

body = "\n".join(sections)
p = 'EXPERIMENTS.md'
s = open(p).read()
s = s.replace('PLACEHOLDER-RESULTS', body)
open(p, 'w').write(s)
print("EXPERIMENTS.md filled:", len(body), "chars")
