"""Table VII — pseudo-honeypot vs honeypot-based solutions.

The paper compares its advanced system's PGE (1.7336) against the PGEs
of published honeypot deployments (0.0034-0.12) and claims a >=19x
advantage.  The published systems cannot be re-deployed (neither could
the paper re-deploy them); we therefore (a) quote the literature rows
verbatim, (b) *additionally* deploy our simulated traditional-honeypot
baseline on the same platform, and (c) compare our measured advanced
pseudo-honeypot PGE against that in-world honeypot PGE — the
apples-to-apples version of the paper's claim.  Shape to reproduce:
the pseudo-honeypot's PGE exceeds the in-world honeypot's PGE by a
large factor.
"""

from conftest import save_result

from repro.analysis.tables import render_table
from repro.baselines.honeypot import HoneypotProfile, TraditionalHoneypot
from repro.baselines.published import PAPER_ADVANCED_ROW, PUBLISHED_HONEYPOTS
from repro.core.pge import overall_pge


def test_table7_honeypot_comparison(benchmark, session, results_dir):
    # Measured advanced pseudo-honeypot PGE (from the Fig. 6 run).
    advanced_run = session.comparison_runs["advanced"]
    advanced_outcome = session.comparison_outcomes["advanced"]
    advanced_node_hours = sum(
        advanced_run.exposure.by_attribute.values()
    )
    advanced_pge = advanced_outcome.n_spammers / max(advanced_node_hours, 1)

    # Deploy the in-world traditional honeypot on the same platform.
    experiment = session.experiment
    truth = experiment.population.truth
    hours = session.scale.comparison_hours
    n_honeypots = max(advanced_node_hours // max(hours, 1), 10)

    def run_honeypot():
        honeypot = TraditionalHoneypot(
            experiment.engine,
            n_honeypots=int(n_honeypots),
            profile=HoneypotProfile.advanced(),
        )
        honeypot.deploy()
        honeypot.run_hours(hours)
        honeypot.shutdown()
        return honeypot

    honeypot = benchmark.pedantic(run_honeypot, rounds=1, iterations=1)
    trapped = {
        uid
        for uid in honeypot.unique_contacts()
        if truth.is_spammer(uid)
    }
    honeypot_pge = overall_pge(len(trapped), int(n_honeypots), hours)

    rows = [
        (
            row.name,
            str(row.year),
            f"{row.running_hours:.0f} h",
            row.n_honeypots,
            row.n_spammers if row.n_spammers is not None else "-",
            row.reported_pge,
        )
        for row in PUBLISHED_HONEYPOTS
    ]
    rows.append(
        (
            "Paper's advanced pseudo-honeypot (quoted)",
            "2018",
            "100 h",
            100,
            PAPER_ADVANCED_ROW.n_spammers,
            PAPER_ADVANCED_ROW.reported_pge,
        )
    )
    rows.append(
        (
            "OUR simulated traditional honeypot",
            "sim",
            f"{hours} h",
            int(n_honeypots),
            len(trapped),
            honeypot_pge,
        )
    )
    rows.append(
        (
            "OUR advanced pseudo-honeypot",
            "sim",
            f"{hours} h",
            int(n_honeypots),
            advanced_outcome.n_spammers,
            advanced_pge,
        )
    )
    # A honeypot that trapped nobody has PGE 0: the ratio has no finite
    # value, so the title says so instead of dividing by a floor.
    if honeypot_pge > 0:
        ratio = advanced_pge / honeypot_pge
        ratio_text = f"ratio = {ratio:.1f}x"
    else:
        ratio = None
        ratio_text = "ratio unbounded (honeypot trapped 0 spammers)"
    table = render_table(
        ["System", "Year", "Duration", "# nodes", "# spammers", "PGE"],
        rows,
        title=(
            "Table VII (reproduction) — PGE comparison; in-world "
            f"pseudo/honeypot {ratio_text}"
        ),
    )
    save_result(results_dir, "table7_honeypot_comparison.txt", table)

    # Shape: the pseudo-honeypot clearly beats the same-world honeypot.
    assert advanced_pge > honeypot_pge
    if ratio is not None:
        assert ratio > 3.0
