"""The benchmark's workloads: each is one `hsilab run` config made from a seed.

The workload seed becomes the config's master seed (and, for opmll-class1,
the env seed), so the same seed always gives the same config and, through
the harness's derived run seeds, the same results.csv.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    env_section: str
    algo_sections: tuple
    n_seeds: int
    episodes: int
    learner_class: str
    needs_candidates: bool = False

    def config_text(self, seed, candidates_path=None, n_seeds=None, episodes=None):
        """The config for one pass; n_seeds and episodes override the size."""
        n_seeds = self.n_seeds if n_seeds is None else n_seeds
        episodes = self.episodes if episodes is None else episodes
        fields = {"seed": seed, "candidates": candidates_path}
        parts = [
            "[experiment]",
            f"episodes = {episodes}",
            "seeds = " + ",".join(str(s) for s in range(n_seeds)),
            f"master-seed = {seed}",
            "",
            self.env_section.format(**fields),
        ]
        parts += [algo.format(**fields) for algo in self.algo_sections]
        return "\n".join(parts)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bandit-tree",
            why=(
                "sampling, the episode loop and bookkeeping on a joint-form "
                "env; planning and the oracle are near zero; 100k CSV rows"
            ),
            env_section=(
                "[env builder=tree]\n"
                "alphabet-size = 2\n"
                "d = 3\n"
                "n-actions = 2\n"
                "epsilon = 0.1\n"
            ),
            algo_sections=(
                "[algo name=epsilon-greedy-seq]\n",
                "[algo name=uniform]\n",
            ),
            n_seeds=10,
            episodes=5000,
            learner_class="EpsilonGreedySequenceAgent",
        ),
        Workload(
            name="opmll-class1",
            why=(
                "op-mll planning and weights per episode; set-up is the "
                "belief-tree V* over 38k nodes; product-form transitions"
            ),
            env_section=(
                "[env builder=random-class1]\n"
                "d = 5\n"
                "alphabet-size = 2\n"
                "d-query = 2\n"
                "horizon = 4\n"
                "n-actions = 2\n"
                "env-seed = {seed}\n"
            ),
            algo_sections=("[algo name=op-mll]\n",),
            n_seeds=4,
            episodes=3000,
            learner_class="OpmllAgent",
        ),
        Workload(
            name="pors-drift",
            why=(
                "pors feedback likelihoods per episode; set-up is the "
                "1024-policy x 8-candidate value table; the only emissions"
            ),
            env_section="[env builder=controlled-drift]\n",
            algo_sections=("[algo name=pors]\ncandidates = {candidates}\n",),
            n_seeds=10,
            episodes=1000,
            learner_class="PorsAgent",
            needs_candidates=True,
        ),
    )
}
