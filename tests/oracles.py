"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: plain Python floats, explicit loops,
math.sqrt, no shared code with the production package beyond the documented
math. Keep it that way so the oracles stay an independent route. The
exceptions are numpy routines: ref_gru_step, one GRU update gate by gate,
and two whose contract is byte equality with the production code:
ref_adam_step, a per-tensor loop of the Adam update, and ref_gru_run, a
GRU run written one temporary per operation. probe is no oracle but the
tests' one scalar readout of a tensor, built from tensorkit primitives.
"""

import math

import numpy as np

from hse import tensorkit as tk


def hinge(x):
    return x if x > 0.0 else 0.0


def ref_match(u, w):
    dot = sum(a * b for a, b in zip(u, w))
    nu = math.sqrt(sum(a * a for a in u))
    nw = math.sqrt(sum(b * b for b in w))
    return dot / (nu * nw)


def ref_sim_matrix(us, ws):
    return [[ref_match(u, w) for w in ws] for u in us]


def ref_loss_match_high(videos, paragraphs, alpha):
    k = len(videos)
    total = 0.0
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            pos = ref_match(videos[i], paragraphs[i])
            total += hinge(alpha + ref_match(videos[j], paragraphs[i]) - pos)
            total += hinge(alpha + ref_match(videos[i], paragraphs[j]) - pos)
    return total


def ref_loss_match_low(clips, sentences, beta):
    flat_c = [c for cs in clips for c in cs]
    flat_s = [s for ss in sentences for s in ss]
    return ref_loss_match_high(flat_c, flat_s, beta)


def ref_cluster(items, margin):
    total = 0.0
    for i in range(len(items)):
        for j in range(len(items)):
            if i == j:
                continue
            total += hinge(margin + ref_match(items[j], items[i]) - 1.0)
    return total


def ref_loss_cluster_high(videos, paragraphs, gamma):
    return ref_cluster(videos, gamma) + ref_cluster(paragraphs, gamma)


def ref_loss_cluster_low(clips, sentences, eta):
    flat_c = [c for cs in clips for c in cs]
    flat_s = [s for ss in sentences for s in ss]
    return ref_cluster(flat_c, eta) + ref_cluster(flat_s, eta)


def ref_avg_match(clips, sentences):
    total = 0.0
    for c in clips:
        for s in sentences:
            total += ref_match(c, s)
    return total / (len(clips) * len(sentences))


def ref_loss_match_low_weak(clips, sentences, beta_prime):
    k = len(clips)
    avg = [[ref_avg_match(clips[a], sentences[b]) for b in range(k)] for a in range(k)]
    total = 0.0
    for a in range(k):
        for b in range(k):
            if a == b:
                continue
            total += hinge(beta_prime + avg[b][a] - avg[a][a])
            total += hinge(beta_prime + avg[a][b] - avg[a][a])
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


def ref_gru_step(gates, x, h):
    """One GRU update of the state h [H] on the input x [D], gate by gate in
    the convention of an HSE1 checkpoint: gates maps w_z, u_z, b_z, w_r, u_r,
    b_r, w_h, u_h, b_h to arrays, W [H, D] and U [H, H], and

        z = sigmoid(W_z x + U_z h + b_z), r = sigmoid(W_r x + U_r h + b_r),
        cand = tanh(W_h x + U_h (r*h) + b_h), h' = (1 - z)*h + z*cand.

    It shares no product with the kernel, whose gates are column blocks of
    one weight matrix. Complex arrays are taken too (complex-step
    derivatives)."""
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    z = sig(gates["w_z"] @ x + gates["u_z"] @ h + gates["b_z"])
    r = sig(gates["w_r"] @ x + gates["u_r"] @ h + gates["b_r"])
    cand = np.tanh(gates["w_h"] @ x + gates["u_h"] @ (r * h) + gates["b_h"])
    return (1.0 - z) * h + z * cand


def ref_gru_run(x, lengths, w, u_zr, u_c, b, h0, dstates, window):
    """States [B, T, H], pooled rows [B, H] and the gradients (dw, du_zr,
    du_c, db, dx, dh0) of sum(states * dstates) for a GRU run over a padded
    batch, each expression written out with one temporary per operation.

    x is [B, T, D] or None (no input term; T is then max(lengths)); h0 is
    [B, H]. The cell, with columns in z|r|h order:

        [z | r] = sigmoid(x w[:, :2H] + h u_zr + b[:2H]),
        cand = tanh(x w[:, 2H:] + (r*h) u_c + b[2H:]), h' = (1 - z)*h + z*cand.

    The forward runs one sequence at a time. A sequence's input terms are
    formed a window of steps at a time, by one product over its own steps
    in the window. Each step forms a recurrent term as row 0 of the
    product of two rows, the row and a zero row, by the weights with zero
    columns up to a width that is a multiple of 4: the bits a row of the
    kernel's batched product has at every batch size and position. The
    backward (backpropagation through time) runs over the rows ordered
    longest first (a stable sort), at step t over the rows still running,
    and forms the weight gradients by products over every padded position.
    dx is None when x is.
    """
    lengths = np.asarray(lengths)
    bsz, hid = h0.shape
    steps = int(lengths.max()) if x is None else x.shape[1]
    u_zr_pad, u_c_pad = (
        np.concatenate([u, np.zeros((hid, -u.shape[1] % 4))], axis=1) for u in (u_zr, u_c)
    )

    def recurrent(v, u_pad, width):
        pair = np.zeros((2, hid))
        pair[0] = v
        return (pair @ u_pad)[0, :width]

    states = np.zeros((bsz, steps, hid))
    zs, rs, cands = np.zeros_like(states), np.zeros_like(states), np.zeros_like(states)
    for row in range(bsz):
        h = h0[row]
        n = int(lengths[row])
        for t0 in range(0, n, window):
            if x is not None:
                xw = x[row, t0 : min(t0 + window, n)] @ w
            for t in range(t0, min(t0 + window, n)):
                pre_zr = recurrent(h, u_zr_pad, 2 * hid)
                if x is not None:
                    pre_zr = xw[t - t0, : 2 * hid] + pre_zr
                zr = 1.0 / (1.0 + np.exp(-(pre_zr + b[: 2 * hid])))
                z, r = zr[:hid], zr[hid:]
                pre_c = recurrent(r * h, u_c_pad, hid)
                if x is not None:
                    pre_c = xw[t - t0, 2 * hid :] + pre_c
                cand = np.tanh(pre_c + b[2 * hid :])
                h = (1.0 - z) * h + z * cand
                states[row, t], zs[row, t], rs[row, t], cands[row, t] = h, z, r, cand
        states[row, n:] = h
    pooled = np.stack([states[row, : lengths[row]].max(axis=0) for row in range(bsz)])

    order = np.argsort(-lengths, kind="stable")
    active = [int(np.sum(lengths > t)) for t in range(steps)]
    g, zs, rs, cands = dstates[order], zs[order], rs[order], cands[order]
    h_prev = np.concatenate([h0[order][:, None, :], states[order][:, :-1]], axis=1)
    u_zr_t, u_c_t = u_zr.T.copy(), u_c.T.copy()
    da = np.zeros((bsz, steps, 3 * hid))
    dh = np.zeros((bsz, hid))
    for t in range(steps - 1, -1, -1):
        n = active[t]
        dh += g[:, t]
        z, r, cand, hp = zs[:n, t], rs[:n, t], cands[:n, t], h_prev[:n, t]
        dnew = dh[:n]
        da_c = dnew * z * (1.0 - cand * cand)
        d_rh = da_c @ u_c_t
        da[:n, t, :hid] = dnew * (cand - hp) * z * (1.0 - z)
        da[:n, t, hid : 2 * hid] = d_rh * hp * r * (1.0 - r)
        da[:n, t, 2 * hid :] = da_c
        dh[:n] = dnew * (1.0 - z) + d_rh * r + da[:n, t, : 2 * hid] @ u_zr_t
    flat = da.reshape(-1, 3 * hid)
    dx = None
    if x is None:
        dw = np.zeros_like(w)
    else:
        xp = x[order]
        dw = (flat.T @ xp.reshape(-1, w.shape[0])).T
        dx = np.empty_like(x)
        dx[order] = da @ w.T.copy()
    du_zr = (flat[:, : 2 * hid].T @ h_prev.reshape(-1, hid)).T
    du_c = (flat[:, 2 * hid :].T @ (rs * h_prev).reshape(-1, hid)).T
    dh0 = np.empty_like(h0)
    dh0[order] = dh
    return states, pooled, (dw, du_zr, du_c, flat.sum(axis=0), dx, dh0)


def probe(x, w):
    """The scalar sum(x * w) of a tensor x and a constant array w of x's
    size, as one affine record over x flattened to a row. Its gradient with
    respect to x is w, reshaped to x's shape, bit for bit."""
    n = x.values.size
    return tk.affine(tk.reshape(x, (1, n)), tk.Tensor(np.reshape(w, (1, n))), tk.Tensor(np.zeros(1)))
