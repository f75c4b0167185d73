"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: plain Python floats, explicit loops,
math.sqrt, no shared code with the production package beyond the documented
math. Keep it that way so the oracles stay an independent route. The one
exception is ref_adam_step, a per-tensor numpy loop, because its contract
is byte equality with the production update.
"""

import math

import numpy as np


def hinge(x):
    return x if x > 0.0 else 0.0


def ref_match(u, w):
    dot = sum(a * b for a, b in zip(u, w))
    nu = math.sqrt(sum(a * a for a in u))
    nw = math.sqrt(sum(b * b for b in w))
    return dot / (nu * nw)


def ref_sim_matrix(us, ws):
    return [[ref_match(u, w) for w in ws] for u in us]


def ref_ranking_from_matrix(sim, margin, sign_mode):
    k = len(sim)
    total = 0.0
    for a in range(k):
        for b in range(k):
            if a == b:
                continue
            if sign_mode == "corrected":
                total += hinge(margin + sim[b][a] - sim[a][a])  # wrong item vs column a
                total += hinge(margin + sim[a][b] - sim[a][a])  # row a vs wrong item
            else:
                total += hinge(margin + sim[a][a] - sim[b][a])
                total += hinge(margin + sim[a][a] - sim[a][b])
    return total


def ref_loss_match_high(videos, paragraphs, alpha, sign_mode="corrected"):
    k = len(videos)
    total = 0.0
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            pos = ref_match(videos[i], paragraphs[i])
            if sign_mode == "corrected":
                total += hinge(alpha + ref_match(videos[j], paragraphs[i]) - pos)
                total += hinge(alpha + ref_match(videos[i], paragraphs[j]) - pos)
            else:
                total += hinge(alpha + pos - ref_match(videos[j], paragraphs[i]))
                total += hinge(alpha + pos - ref_match(videos[i], paragraphs[j]))
    return total


def ref_loss_match_low(clips, sentences, beta, sign_mode="corrected"):
    flat_c = [c for cs in clips for c in cs]
    flat_s = [s for ss in sentences for s in ss]
    return ref_loss_match_high(flat_c, flat_s, beta, sign_mode)


def ref_cluster(items, margin, sign_mode="corrected"):
    total = 0.0
    for i in range(len(items)):
        for j in range(len(items)):
            if i == j:
                continue
            m = ref_match(items[j], items[i])
            if sign_mode == "corrected":
                total += hinge(margin + m - 1.0)
            else:
                total += hinge(margin + 1.0 - m)
    return total


def ref_loss_cluster_high(videos, paragraphs, gamma, sign_mode="corrected"):
    return ref_cluster(videos, gamma, sign_mode) + ref_cluster(paragraphs, gamma, sign_mode)


def ref_loss_cluster_low(clips, sentences, eta, sign_mode="corrected"):
    flat_c = [c for cs in clips for c in cs]
    flat_s = [s for ss in sentences for s in ss]
    return ref_cluster(flat_c, eta, sign_mode) + ref_cluster(flat_s, eta, sign_mode)


def ref_avg_match(clips, sentences):
    total = 0.0
    for c in clips:
        for s in sentences:
            total += ref_match(c, s)
    return total / (len(clips) * len(sentences))


def ref_loss_match_low_weak(clips, sentences, beta_prime, sign_mode="corrected"):
    k = len(clips)
    avg = [[ref_avg_match(clips[a], sentences[b]) for b in range(k)] for a in range(k)]
    total = 0.0
    for a in range(k):
        for b in range(k):
            if a == b:
                continue
            if sign_mode == "corrected":
                total += hinge(beta_prime + avg[b][a] - avg[a][a])
                total += hinge(beta_prime + avg[a][b] - avg[a][a])
            else:
                total += hinge(beta_prime + avg[a][a] - avg[b][a])
                total += hinge(beta_prime + avg[a][a] - avg[a][b])
    return total


def ref_loss_reconstruct(target_low, decoded_low, decoded_units, raw_units):
    total = 0.0
    for t, d in zip(target_low, decoded_low):
        total += sum((a - b) ** 2 for a, b in zip(d, t))
    for rows, raw in zip(decoded_units, raw_units):
        err = 0.0
        for r, x in zip(rows, raw):
            err += sum((a - b) ** 2 for a, b in zip(r, x))
        total += err / len(raw)
    return total


def ref_ranks(sims):
    """1-based rank of the diagonal entry per row, ties in the row's favor."""
    ranks = []
    for i, row in enumerate(sims):
        ranks.append(1 + sum(1 for v in row if v > row[i]))
    return ranks


def ref_recall_at_k(ranks, k):
    ordered = sorted(ranks)
    count = 0
    for r in ordered:
        if r <= k:
            count += 1
        else:
            break
    return count / len(ordered)


def ref_median_rank(ranks):
    ordered = sorted(ranks)
    return ordered[(len(ordered) - 1) // 2]


def ref_adam_step(params, grads, ms, vs, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update of the numpy arrays params, in place, one tensor at a
    time; ms and vs are the per-tensor moments, t the 1-based step."""
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for p, g, m, v in zip(params, grads, ms, vs):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
