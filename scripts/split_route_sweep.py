"""Hit rate and time of the orthogonal-split route on random unit frames, by n and m.

For each dimension n = 4..8 and each frame size m the script draws seeded
unit frames (rows uniform on the sphere, kept when they span R^n) and runs
the orthogonal-split route of ``search_piecewise`` at ranks 1..n-1:
it skips the ranks with more cosines than unknowns, (n - 2k)^2 > n, and
at the others it uses pivoted row sets S and T, three seeded starts per
rank and Levenberg-Marquardt on the pairwise cosines.  It prints how many frames
the route scaled (a frame counts when a split the route yields passes
``verify_piecewise``, as in the search) and the mean milliseconds per frame.

This is evidence, not a theorem.  The paper proves that every frame in
R^2 and R^3 is piecewise scalable; a frame the route misses here may
still have a scaling, and a high hit rate proves nothing about any other
frame.
"""

import argparse
import time

import numpy as np

import framescale as fs
from framescale.search import _orthogonal_split_route


def sizes(n: int) -> list[int]:
    return [n + 1, n + 3, 2 * n, 3 * n]


def spanning_unit_frame(rng, n: int, m: int) -> fs.Frame:
    while True:
        X = rng.standard_normal((m, n))
        frame = fs.Frame(X / np.linalg.norm(X, axis=1, keepdims=True))
        if frame.is_frame():
            return frame


def run(seed: int, frames: int, dims=range(4, 9)) -> None:
    print(f"{'n':>3} {'m':>4} {'frames':>7} {'hits':>5} {'ms/frame':>9}")
    for n in dims:
        for m in sizes(n):
            rng = np.random.default_rng([seed, n, m])
            hits, elapsed = 0, 0.0
            for index in range(frames):
                frame = spanning_unit_frame(rng, n, m)
                start = time.perf_counter()
                splits = _orthogonal_split_route(frame, range(1, n), index, fs.DEFAULT_TOL)
                hits += any(fs.verify_piecewise(frame, ps).passed for ps in splits)
                elapsed += time.perf_counter() - start
            print(f"{n:>3} {m:>4} {frames:>7} {hits:>5} {elapsed / frames * 1e3:>9.2f}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--frames", type=int, default=50)
    args = parser.parse_args()
    run(args.seed, args.frames)
