"""Lloyd iterations for the k-means step of spectral clustering.

``lloyd(x, centroids, max_iter)`` refines the given initial centroids on the
rows of ``x``. Assignment ties go to the lowest cluster index; a cluster
left empty is reseeded, in ascending cluster order, with the point farthest
from its own centroid among those whose cluster keeps another member. It
stops when the assignment is unchanged or after ``max_iter`` sweeps, and
returns ``(labels, centroids, wcss, n_iter)``.
"""

import numpy as np


def lloyd(x, centroids, max_iter):
    n, _ = x.shape
    k = centroids.shape[0]
    cent = centroids.copy()
    labels = np.full(n, -1, dtype=np.int64)
    n_iter = 0
    for _ in range(max_iter):
        n_iter += 1
        d2 = ((x[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        dist_own = d2[np.arange(n), new_labels]
        counts = np.bincount(new_labels, minlength=k)
        for j in range(k):
            if counts[j] == 0:
                movable = counts[new_labels] > 1
                far = int(np.argmax(np.where(movable, dist_own, -1.0)))
                counts[new_labels[far]] -= 1
                new_labels[far] = j
                counts[j] = 1
                dist_own[far] = 0.0
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
        cent = np.zeros_like(cent)
        np.add.at(cent, labels, x)
        cent /= counts[:, None]
    wcss = float(((x - cent[labels]) ** 2).sum())
    return labels, cent, wcss, n_iter
