"""The interactive prover interface (the Isabelle / Coq role in Figure 1).

When a sequent reaches this prover, the dispatcher has exhausted the
automated portfolio.  Two sources of proofs are tried:

1. a script from the lemma store (a previously "interactively" written
   proof for exactly this sequent or this goal), replayed through the
   kernel;
2. a configurable default script (``intro*; auto``) that mimics invoking the
   general-purpose automation of an interactive prover on the goal — this is
   the analogue of Jahob calling Isabelle's ``auto`` tactic automatically.

Both paths go through the kernel, so nothing is ever assumed without a
checked proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..form import ast as F
from ..provers.base import Deadline, Prover, ProverAnswer, Verdict
from ..vcgen.sequent import Sequent
from .kernel import Kernel, ProofScript, ProofState
from .lemma_store import LemmaStore


class InteractiveProver(Prover):
    """Replays stored proof scripts and a default semi-automatic script."""

    name = "interactive"

    @dataclass(frozen=True)
    class Options(Prover.Options):
        #: Try the default ``intro*; auto`` script when no stored one proves.
        use_default_script: bool = True

    def __init__(
        self, store: Optional[LemmaStore] = None, kernel: Optional[Kernel] = None, **options
    ) -> None:
        super().__init__(**options)
        self.store = store or LemmaStore()
        self.kernel = kernel or Kernel()

    def options_signature(self) -> str:
        # Verdicts depend on the lemma store's exact contents: adding,
        # replacing or removing a script can flip UNKNOWN to PROVED (or the
        # reverse), so the signature fingerprints every (fingerprint, script)
        # pair rather than just the count.
        import hashlib

        payload = "|".join(
            f"{fingerprint}:{script!r}"
            for fingerprint, script in sorted(self.store.scripts.items())
        )
        store_hash = hashlib.sha256(payload.encode()).hexdigest()[:16]
        return super().options_signature() + f";lemmas={store_hash}"

    def attempt(self, sequent: Sequent, deadline: Deadline) -> ProverAnswer:
        script = self.store.lookup(sequent)
        if script is not None and self.kernel.replay(sequent, script, deadline):
            return ProverAnswer(
                Verdict.PROVED, self.name, detail=f"replayed stored script {script.name!r}"
            )
        if self.options.use_default_script:
            default = self._default_script(sequent)
            if self.kernel.replay(sequent, default, deadline):
                return ProverAnswer(
                    Verdict.PROVED, self.name, detail="default intro/split/auto script"
                )
        return ProverAnswer(Verdict.UNKNOWN, self.name, detail="no applicable proof script")

    def _default_script(self, sequent: Sequent) -> ProofScript:
        """A small heuristic script: peel binders/implications, split, auto."""
        script = ProofScript("default")
        goal = sequent.goal.formula
        for _ in range(4):
            if isinstance(goal, F.Quant) and goal.kind == "ALL":
                script.add("intro")
                goal = goal.body
            elif isinstance(goal, F.Implies):
                script.add("intro")
                goal = goal.rhs
            else:
                break
        if isinstance(goal, F.And):
            script.add("split")
            for _ in goal.args:
                script.add("auto")
        else:
            script.add("auto")
        return script
