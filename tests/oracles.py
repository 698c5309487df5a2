"""Independent reference computations used to check the package.

Everything here is deliberately written as plain loops over numpy scalars,
with no reuse of the package's own operator implementations. The one
exception is `oracle_backward`, an earlier graph walk that calls the
operations' own gradient functions.
"""
import itertools
import math

import numpy as np

from coleaf.errors import ContractError


def naive_matmul(a, b):
    a, b = np.asarray(a), np.asarray(b)
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for l in range(k):
                acc += a[i, l] * b[l, j]
            out[i, j] = acc
    return out


def naive_bce(target, prob, eps=1e-7):
    t = np.asarray(target, dtype=float).ravel()
    p = np.asarray(prob, dtype=float).ravel()
    total = 0.0
    for ti, pi in zip(t, p):
        pi = min(max(pi, eps), 1.0 - eps)
        total += -(ti * math.log(pi) + (1.0 - ti) * math.log(1.0 - pi))
    return total / len(t)


def naive_softmax(x, axis):
    x = np.asarray(x, dtype=float)
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def naive_attention(query, kv, wq, wk, wv):
    q = naive_matmul(query, wq)
    k = naive_matmul(kv, wk)
    v = naive_matmul(kv, wv)
    scores = naive_matmul(q, np.transpose(k)) / math.sqrt(wk.shape[1])
    att = naive_softmax(scores, axis=1)
    return naive_matmul(att, v)


def reference_forward_oracle(sample, values, use_class_tokens=True):
    """Step-by-step recomputation of the reference branch from each problem's array by
    file name, as `dict(params.members)` gives them."""
    t = sample.audio_tokens.shape[0]
    out = {}
    for modality, feats in (("audio", sample.audio_tokens), ("visual", sample.visual_tokens)):
        attn = {k: values[f"reference.attn_{modality}.{k}"] for k in ("wq", "wk", "wv")}
        if use_class_tokens:
            x = np.concatenate([feats, values[f"reference.class_tokens_{modality}"]], axis=0)
        else:
            x = feats
        tokens = naive_attention(x, x, attn["wq"], attn["wk"], attn["wv"])
        seg = tokens[:t]
        cw = values[f"reference.classifier_{modality}.weight"]
        cb = values[f"reference.classifier_{modality}.bias"]
        seg_probs = 1.0 / (1.0 + np.exp(-(naive_matmul(seg, cw) + cb)))
        tw = values["reference.temporal_fc.weight"]
        tb = values["reference.temporal_fc.bias"]
        weights = naive_softmax(naive_matmul(seg, tw) + tb, axis=0)
        video = np.zeros(seg_probs.shape[1])
        for i in range(t):
            video += weights[i] * seg_probs[i]
        cls = None
        if use_class_tokens:
            cls = 1.0 / (1.0 + np.exp(-tokens[t:].mean(axis=1)))
        out[modality] = {
            "tokens": tokens,
            "seg_probs": seg_probs,
            "weights": weights,
            "video": video,
            "cls": cls,
        }
    return out


def anchor_forward_oracle(sample, values, unimodal_only=False):
    """Recomputation of the anchor branch, with the pooled sum as a double loop, from
    `dict(params.members)` as in `reference_forward_oracle`."""
    fa, fv = sample.audio_tokens, sample.visual_tokens

    def attn(prefix, q, kv):
        return naive_attention(
            q, kv, values[f"{prefix}.wq"], values[f"{prefix}.wk"], values[f"{prefix}.wv"]
        )

    ha = fa + attn("anchor.self_attn_audio", fa, fa)
    hv = fv + attn("anchor.self_attn_visual", fv, fv)
    if not unimodal_only:
        ha = ha + attn("anchor.cross_attn_audio", fa, fv)
        hv = hv + attn("anchor.cross_attn_visual", fv, fa)
    cw, cb = values["anchor.classifier.weight"], values["anchor.classifier.bias"]
    pa = 1.0 / (1.0 + np.exp(-(naive_matmul(ha, cw) + cb)))
    pv = 1.0 / (1.0 + np.exp(-(naive_matmul(hv, cw) + cb)))
    probs = np.stack([pa, pv], axis=1)  # T x 2 x C
    feats = np.stack([ha, hv], axis=1)
    tw, tb = values["anchor.pool_temporal_fc.weight"], values["anchor.pool_temporal_fc.bias"]
    mw, mb = values["anchor.pool_modality_fc.weight"], values["anchor.pool_modality_fc.bias"]
    t_logits = np.einsum("tmd,dc->tmc", feats, tw) + tb
    m_logits = np.einsum("tmd,dc->tmc", feats, mw) + mb
    w_t = naive_softmax(t_logits, axis=0)
    w_m = naive_softmax(m_logits, axis=1)
    t, m, c = probs.shape
    video = np.zeros(c)
    norm = np.zeros(c)
    for ti in range(t):
        for mi in range(m):
            video += w_t[ti, mi] * w_m[ti, mi] * probs[ti, mi]
            norm += w_t[ti, mi] * w_m[ti, mi]
    video = video / norm
    return {
        "tokens_audio": ha,
        "tokens_visual": hv,
        "seg_probs": probs,
        "w_temporal": w_t,
        "w_modality": w_m,
        "video": video,
    }


def nce_oracle(anchor_a, anchor_v, ref_a, ref_v, theta_a, theta_v, tau, include_positive=False):
    """Double-loop evaluation of the event-aware contrastive objective."""
    total = 0.0
    t = anchor_a.shape[0]
    for f, x, theta in ((anchor_a, ref_a, theta_a), (anchor_v, ref_v, theta_v)):
        if theta == 0.0:
            continue
        acc = 0.0
        for i in range(t):
            pos = math.exp(float(np.dot(f[i], x[i])) / tau)
            den = 0.0
            for n in range(t):
                if not include_positive and n == i:
                    continue
                den += math.exp(float(np.dot(f[i], x[n])) / tau)
            acc += math.log(pos / den)
        total += theta * acc
    return -total / t


def oracle_backward(loss):
    """The two-pass walk `numerics.backward` replaced: a depth-first search collects
    the reachable nodes, a sort puts them in creation order, and a reverse walk
    applies each node's gradient function. Kept verbatim to hold the one-pass
    walk to the same key set and the same bits."""
    if loss.shape != ():
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not np.isfinite(loss.data):
        raise ContractError("backward needs a finite loss")
    if not loss.requires_grad:
        return {}
    seen = set()
    reachable = []
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        reachable.append(node)
        stack.extend(p for p in node._parents if p.requires_grad)
    # Creation order places every node after its parents, so walking it in
    # reverse visits each node only after all of its consumers.
    reachable.sort(key=lambda n: n._seq)
    grads = {loss: np.ones((), dtype=np.float64)}
    for node in reversed(reachable):
        gout = grads.get(node)
        if gout is None or node._grad_fn is None:
            continue
        for parent, gpar in zip(node._parents, node._grad_fn(gout)):
            if gpar is None or not parent.requires_grad:
                continue
            if parent in grads:
                grads[parent] = grads[parent] + gpar
            else:
                grads[parent] = gpar
    return grads


def central_difference(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def relative_error(a, b, floor=1.0):
    return abs(a - b) / max(floor, abs(a), abs(b))


def fd_check_params(build_loss, params, coords, h=1e-5, tol=1e-5):
    """Central finite differences against reverse-mode gradients.

    `coords` is a list of (parameter name, flat index). Returns the largest
    relative error observed.
    """
    from coleaf import numerics as nm

    loss = build_loss(params)
    grads = nm.backward(loss)
    by_name = dict(params.named_parameters())
    worst = 0.0
    for name, flat_index in coords:
        tensor = by_name[name]
        grad = grads.get(tensor)
        g_ad = 0.0 if grad is None else float(grad.reshape(-1)[flat_index])

        def eval_at(value):
            data = tensor.data.reshape(-1)  # a view into params.flat
            data[flat_index] = value
            out = build_loss(params).item()
            data[flat_index] = base
            return out

        base = float(tensor.data.reshape(-1)[flat_index])
        g_fd = central_difference(eval_at, base, h)
        worst = max(worst, relative_error(g_ad, g_fd))
    assert worst <= tol, f"gradient mismatch: worst relative error {worst:.3g}"
    return worst


def sample_coords(rng, params, per_param=2, prefix=""):
    coords = []
    for name, tensor in params.named_parameters():
        if not name.startswith(prefix):
            continue
        size = tensor.data.size
        picks = min(per_param, size)
        for flat in rng.choice(size, size=picks, replace=False):
            coords.append((name, int(flat)))
    return coords


# --- metric oracles ---------------------------------------------------------


def oracle_fscore(tp, fp, fn):
    if tp == 0 and fp == 0 and fn == 0:
        return 100.0
    return 100.0 * 2.0 * tp / (2.0 * tp + fp + fn)


def oracle_cell_counts(pred, gt):
    tp = fp = fn = 0
    t, c = pred.shape
    for i in range(t):
        for j in range(c):
            if pred[i, j] and gt[i, j]:
                tp += 1
            elif pred[i, j] and not gt[i, j]:
                fp += 1
            elif not pred[i, j] and gt[i, j]:
                fn += 1
    return tp, fp, fn


def oracle_runs(matrix):
    """Maximal positive runs per class as (class, start, end) triples."""
    runs = []
    t, c = matrix.shape
    for j in range(c):
        i = 0
        while i < t:
            if matrix[i, j]:
                start = i
                while i + 1 < t and matrix[i + 1, j]:
                    i += 1
                runs.append((j, start, i))
            i += 1
    return runs


def oracle_iou(a, b):
    inter = min(a[2], b[2]) - max(a[1], b[1]) + 1
    if inter <= 0:
        return 0.0
    union = (a[2] - a[1] + 1) + (b[2] - b[1] + 1) - inter
    return inter / union


def oracle_greedy_match(pred_runs, gt_runs, iou_thr=0.5):
    pairs = []
    for i, p in enumerate(pred_runs):
        for j, g in enumerate(gt_runs):
            if p[0] != g[0]:
                continue
            iou = oracle_iou(p, g)
            if iou >= iou_thr:
                pairs.append((iou, i, j))
    pairs.sort(key=lambda x: (-x[0], x[1], x[2]))
    taken_p, taken_g = set(), set()
    tp = 0
    for _, i, j in pairs:
        if i in taken_p or j in taken_g:
            continue
        taken_p.add(i)
        taken_g.add(j)
        tp += 1
    return tp, len(pred_runs) - tp, len(gt_runs) - tp


def oracle_optimal_match(pred_runs, gt_runs, iou_thr=0.5):
    """Maximum-cardinality matching by brute force; feasible for tiny sets."""
    best = 0
    candidates = [
        (i, j)
        for i in range(len(pred_runs))
        for j in range(len(gt_runs))
        if pred_runs[i][0] == gt_runs[j][0] and oracle_iou(pred_runs[i], gt_runs[j]) >= iou_thr
    ]
    for r in range(len(candidates), 0, -1):
        for combo in itertools.combinations(candidates, r):
            preds = [c[0] for c in combo]
            gts = [c[1] for c in combo]
            if len(set(preds)) == r and len(set(gts)) == r:
                best = max(best, r)
                break
        if best:
            break
    tp = best
    return tp, len(pred_runs) - tp, len(gt_runs) - tp


def oracle_exclusive(parse_a, parse_v):
    ao = parse_a * (1 - parse_v)
    vo = parse_v * (1 - parse_a)
    av = parse_a * parse_v
    return ao, vo, av


def oracle_full_report(pred_parses, gt_parses, iou_thr=0.5, aggregation="micro"):
    """Brute-force recomputation of all nine metrics at both levels."""
    ids = sorted(pred_parses)
    seg_counts = []
    ev_counts = []
    for vid in ids:
        pa, pv = pred_parses[vid]
        ga, gv = gt_parses[vid]
        p_ao, p_vo, p_av = oracle_exclusive(pa, pv)
        g_ao, g_vo, g_av = oracle_exclusive(ga, gv)
        streams = {
            "A": (pa, ga),
            "V": (pv, gv),
            "AV": (p_av, g_av),
            "Ao": (p_ao, g_ao),
            "Vo": (p_vo, g_vo),
        }
        seg_counts.append({s: oracle_cell_counts(p, g) for s, (p, g) in streams.items()})
        ev_counts.append(
            {s: oracle_greedy_match(oracle_runs(p), oracle_runs(g), iou_thr) for s, (p, g) in streams.items()}
        )

    def add(a, b):
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2])

    def level(counts):
        if aggregation == "micro":
            totals = {s: (0, 0, 0) for s in ("A", "V", "AV", "Ao", "Vo")}
            for c in counts:
                for s in totals:
                    totals[s] = add(totals[s], c[s])
            f = {s: oracle_fscore(*totals[s]) for s in totals}
            ev_av = oracle_fscore(*add(totals["A"], totals["V"]))
            ev_avo = oracle_fscore(*add(totals["Ao"], totals["Vo"]))
        else:
            lists = {s: [] for s in ("A", "V", "AV", "Ao", "Vo")}
            ev_av_l, ev_avo_l = [], []
            for c in counts:
                for s in lists:
                    lists[s].append(oracle_fscore(*c[s]))
                ev_av_l.append(oracle_fscore(*add(c["A"], c["V"])))
                ev_avo_l.append(oracle_fscore(*add(c["Ao"], c["Vo"])))
            f = {s: float(np.mean(lists[s])) for s in lists}
            ev_av = float(np.mean(ev_av_l))
            ev_avo = float(np.mean(ev_avo_l))
        return {
            "A": f["A"],
            "Ao": f["Ao"],
            "V": f["V"],
            "Vo": f["Vo"],
            "AV": f["AV"],
            "Type@AV": (f["A"] + f["V"] + f["AV"]) / 3.0,
            "Type@AVo": (f["Ao"] + f["Vo"] + f["AV"]) / 3.0,
            "Event@AV": ev_av,
            "Event@AVo": ev_avo,
        }

    return {"segment": level(seg_counts), "event": level(ev_counts)}
