"""Independent reference implementations the tests compare against.

Everything here is written for obviousness, not speed: explicit loops,
no shared code with the package beyond basic numpy. Retrieval oracles use
math.fsum so their sums are exactly rounded and order-independent, which
is what lets the equality tests demand bit-identical results.
"""

import math

import numpy as np


def central_difference(fn, arr, h=1e-5):
    """Numeric gradient of scalar fn with respect to every entry of arr."""
    grad = np.zeros_like(arr, dtype=np.float64)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = fn()
        flat[i] = keep - h
        down = fn()
        flat[i] = keep
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def gaussian_kernel_assignment(beta, prototypes, feature):
    """Soft assignment as a normalized Gaussian kernel over prototypes.

    Entry n is exp(-beta * ||f - p_n||^2) divided by the sum over all n.
    """
    weights = []
    for p in prototypes:
        diff = feature - p
        weights.append(math.exp(-beta * float(np.dot(diff, diff))))
    total = sum(weights)
    return np.array([w / total for w in weights])


def naive_cumulative_correlation(embeddings, similarity, node):
    """Sum over partners of similarity-weighted embedding outer products."""
    num_views, width = embeddings.shape
    out = np.zeros((width, width))
    for other in range(num_views):
        out += similarity[node, other] * np.outer(embeddings[node], embeddings[other])
    return out


def naive_average_precision(relevant_row):
    hits = 0
    precisions = []
    for pos in range(len(relevant_row)):
        if relevant_row[pos]:
            hits += 1
            precisions.append(hits / (pos + 1))
    if hits == 0:
        return 0.0
    return math.fsum(precisions) / hits


def naive_hits(relevant_rows):
    """Each row's 1-based hit depths and the precision at each, row after
    row, plus the offset where each row's hits start (one more at the end)."""
    depths, precisions, starts = [], [], [0]
    for row in relevant_rows:
        found = 0
        for pos in range(len(row)):
            if row[pos]:
                found += 1
                depths.append(pos + 1)
                precisions.append(found / (pos + 1))
        starts.append(len(depths))
    return depths, precisions, starts


def naive_precision_recall_f1(relevant_row, k):
    total = sum(1 for r in relevant_row if r)
    hits = sum(1 for r in relevant_row[:k] if r)
    precision = hits / k if k > 0 else 0.0
    recall = hits / total if total > 0 else 0.0
    if precision + recall > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    else:
        f1 = 0.0
    return precision, recall, f1


def naive_ndcg(relevant_row, k):
    total = sum(1 for r in relevant_row if r)
    if k <= 0 or total == 0:
        return 0.0
    dcg = 0.0
    gains = []
    for pos in range(min(k, len(relevant_row))):
        if relevant_row[pos]:
            gains.append(1.0 / math.log2(pos + 2))
    dcg = math.fsum(gains)
    ideal = math.fsum(1.0 / math.log2(pos + 2) for pos in range(min(total, k)))
    return dcg / ideal


def naive_pr_curve(relevant_rows, points):
    """Mean interpolated precision at a uniform recall grid."""
    grid = [t / (points - 1) for t in range(points)]
    sums = [[] for _ in grid]
    for row in relevant_rows:
        total = sum(1 for r in row if r)
        if total == 0:
            for bucket in sums:
                bucket.append(0.0)
            continue
        hits = 0
        stages = []
        for pos in range(len(row)):
            hits += 1 if row[pos] else 0
            stages.append((hits / total, hits / (pos + 1)))
        for t, r in enumerate(grid):
            best = 0.0
            found = False
            for rec, prec in stages:
                if rec >= r:
                    found = True
                    if prec > best:
                        best = prec
            sums[t].append(best if found else 0.0)
    n = len(relevant_rows)
    return (
        np.array(grid, dtype=np.float64),
        np.array([math.fsum(bucket) / n for bucket in sums]),
    )


def naive_ranked_lists(
    query_features, query_labels, gallery_features, gallery_labels,
    exclude_self=False, metric="euclidean",
):
    """Ranked gallery indices and relevance flags, computed pair by pair.

    Ties break toward the lower gallery index, and NaN distances rank last.
    Cosine treats a zero-norm vector as maximally distant.
    """
    ranked_all, rel_all = [], []
    for qi in range(len(query_features)):
        q = query_features[qi]
        pairs = []
        for j in range(len(gallery_features)):
            if exclude_self and j == qi:
                continue
            g = gallery_features[j]
            if metric == "euclidean":
                diff = g - q
                d = math.sqrt(float(np.sum(diff * diff)))
            else:
                qn = math.sqrt(float(np.sum(q * q)))
                gn = math.sqrt(float(np.sum(g * g)))
                denom = qn * gn
                sim = float(np.sum(g * q)) / denom if denom > 0.0 else 0.0
                d = 1.0 - sim
            pairs.append((d, j))
        pairs.sort(key=lambda t: (math.isnan(t[0]), 0.0 if math.isnan(t[0]) else t[0], t[1]))
        ranked_all.append([j for _, j in pairs])
        rel_all.append(
            [bool(gallery_labels[j] == query_labels[qi]) for j in ranked_all[-1]]
        )
    return ranked_all, rel_all


def naive_shrec(
    query_features, query_labels, gallery_features, gallery_labels,
    exclude_self=False, cutoff=None, metric="euclidean",
):
    """Per-query precision/recall/F1/AP/NDCG rows plus micro and macro means.

    The default per-query cutoff is the gallery count of the query's class,
    taken before self-exclusion and clamped to the ranked-list length.
    """
    _, rel_all = naive_ranked_lists(
        query_features, query_labels, gallery_features, gallery_labels,
        exclude_self=exclude_self, metric=metric,
    )
    rows = []
    for qi, rel in enumerate(rel_all):
        label = int(query_labels[qi])
        if cutoff is None:
            k = sum(1 for g in gallery_labels if int(g) == label)
        else:
            k = cutoff
        k = min(k, len(rel))
        precision, recall, f1 = naive_precision_recall_f1(rel, k)
        rows.append({
            "query": qi, "label": label, "cutoff": k,
            "precision": precision, "recall": recall, "f1": f1,
            "ap": naive_average_precision(rel), "ndcg": naive_ndcg(rel, k),
        })
    keys = ("precision", "recall", "f1", "ap", "ndcg")

    def mean(key, subset):
        return math.fsum(r[key] for r in subset) / len(subset)

    micro = {key: mean(key, rows) for key in keys}
    class_means = [
        {key: mean(key, [r for r in rows if r["label"] == lab]) for key in keys}
        for lab in sorted({r["label"] for r in rows})
    ]
    macro = {
        key: math.fsum(cm[key] for cm in class_means) / len(class_means)
        for key in keys
    }
    return rows, micro, macro


def reference_view_graph(directions, sigma):
    """One rig's (unit directions, similarity), step by step as the view
    graph was first built: renormalize, clip the cosine and the edge length,
    zero the diagonal edge, exponentiate, mirror the upper triangle, unit
    diagonal. Inputs are taken as valid (near-unit directions, sigma >= 0)."""
    norms = np.linalg.norm(directions, axis=1)
    unit = directions / norms[:, None]
    cos = np.clip(unit @ unit.T, -1.0, 1.0)
    edges = np.clip(0.5 * (1.0 - cos), 0.0, 1.0)
    np.fill_diagonal(edges, 0.0)
    sim = np.exp(-sigma * edges)
    sim = np.triu(sim) + np.triu(sim, 1).T
    np.fill_diagonal(sim, 1.0)
    return unit, sim


# -- dense per-shape model ----------------------------------------------------
#
# The network as first written: one shape at a time, every node's (N, N)
# cumulative correlation built explicitly. The batched, factored model must
# agree with it; it reads the parameter blocks and config fields only.


def _softmax(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def _softmax_grad(y, g):
    return y * (g - np.dot(g, y))


def masked_sigmoid(x):
    """Logistic function in two masked branches: 1/(1 + exp(-x)) where
    x >= 0, exp(x)/(1 + exp(x)) elsewhere."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _similarity(sample, config):
    views = sample.features.shape[0]
    return np.ones((views, views)) if config.no_spatiality else sample.graph.similarity


def dense_forward(sample, params, config):
    """One shape's forward pass; returns a dict of every intermediate."""
    p = {name: arr for name, arr in params.blocks()}
    feats = np.asarray(sample.features, dtype=np.float64)
    views = feats.shape[0]
    if config.no_latent:
        emb = feats
    else:
        emb = np.array([_softmax(p["latent_filters"] @ f + p["latent_offsets"])
                        for f in feats])
    trace = {"embeddings": emb, "weighted_sums": None, "node_corr": None,
             "scores": None, "alpha": None, "pool_argmax": None}
    if config.mean_pool:
        agg = emb.mean(axis=0)
    elif config.max_pool:
        trace["pool_argmax"] = emb.argmax(axis=0)
        agg = emb.max(axis=0)
    else:
        sim = _similarity(sample, config)
        weighted = sim @ emb
        if config.no_correlation:
            node = weighted
            collapsed = node
        else:
            node = np.array([np.outer(emb[j], weighted[j]) for j in range(views)])
            collapsed = np.array([node[j] @ p["attn_node_vec"] for j in range(views)])
        if config.no_attention:
            alpha = np.full(views, 1.0 / views)
        else:
            scores = np.array([p["attn_out"] @ (p["attn_node_proj"] @ c) for c in collapsed])
            trace["scores"] = scores
            alpha = _softmax(scores)
        agg = sum(alpha[j] * node[j] for j in range(views))
        trace.update(weighted_sums=weighted, node_corr=node, alpha=alpha)
    feature = masked_sigmoid(p["feat_weights"] @ agg.reshape(-1) + p["feat_bias"])
    logits = p["cls_weights"] @ feature + p["cls_bias"]
    trace.update(agg=agg, global_feature=feature, logits=logits, probs=_softmax(logits))
    return trace


def dense_backward(trace, sample, params, config):
    """Gradients of one shape's -log P[label], {block: array}, for the blocks
    that can move the loss (the same set the model's backward returns)."""
    p = {name: arr for name, arr in params.blocks()}
    feats = np.asarray(sample.features, dtype=np.float64)
    emb, agg, feature = trace["embeddings"], trace["agg"], trace["global_feature"]
    views, width = emb.shape
    g_logits = trace["probs"].copy()
    g_logits[sample.label] -= 1.0
    g_pre = (p["cls_weights"].T @ g_logits) * feature * (1.0 - feature)
    grads = {
        "feat_weights": np.outer(g_pre, agg.reshape(-1)),
        "feat_bias": g_pre,
        "cls_weights": np.outer(g_logits, feature),
        "cls_bias": g_logits,
    }
    g_agg = (p["feat_weights"].T @ g_pre).reshape(agg.shape)
    if config.mean_pool:
        g_emb = np.tile(g_agg / views, (views, 1))
    elif config.max_pool:
        g_emb = np.zeros((views, width))
        g_emb[trace["pool_argmax"], np.arange(width)] = g_agg
    else:
        sim = _similarity(sample, config)
        node, alpha, weighted = trace["node_corr"], trace["alpha"], trace["weighted_sums"]
        g_node = np.array([alpha[j] * g_agg for j in range(views)])
        g_alpha = np.array([np.sum(node[j] * g_agg) for j in range(views)])
        if trace["scores"] is not None:
            g_scores = _softmax_grad(alpha, g_alpha)
            proj, vec, out = p["attn_node_proj"], p["attn_node_vec"], p["attn_out"]
            back = np.array([g_scores[j] * (out @ proj) for j in range(views)])
            if config.no_correlation:
                collapsed = node
                g_node = g_node + back
            else:
                collapsed = np.array([node[j] @ vec for j in range(views)])
                grads["attn_node_vec"] = sum(node[j].T @ back[j] for j in range(views))
                g_node = g_node + np.array([np.outer(back[j], vec) for j in range(views)])
            grads["attn_node_proj"] = sum(
                np.outer(g_scores[j] * out, collapsed[j]) for j in range(views)
            )
            grads["attn_out"] = sum(g_scores[j] * (proj @ collapsed[j]) for j in range(views))
        if config.no_correlation:
            g_emb = sim.T @ g_node
        else:
            left = np.array([g_node[j] @ weighted[j] for j in range(views)])
            right = np.array([g_node[j].T @ emb[j] for j in range(views)])
            g_emb = left + sim.T @ right
    if not config.no_latent:
        g_logit = np.array([_softmax_grad(emb[j], g_emb[j]) for j in range(views)])
        grads["latent_filters"] = g_logit.T @ feats
        grads["latent_offsets"] = g_logit.sum(axis=0)
    return grads


def dense_loss(trace, label):
    z = trace["logits"]
    top = z.max()
    return float(top - z[label] + np.log(np.exp(z - top).sum()))
