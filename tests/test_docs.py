"""Documentation-rot guards: README/DESIGN references must stay valid."""

import re
from pathlib import Path


ROOT = Path(__file__).resolve().parent.parent


class TestReadme:
    def test_exists_with_key_sections(self):
        text = (ROOT / "README.md").read_text()
        for heading in ("## Install", "## Quickstart", "## Architecture",
                        "## Tests and benchmarks"):
            assert heading in text

    def test_listed_examples_exist(self):
        text = (ROOT / "README.md").read_text()
        for match in re.finditer(r"python (examples/\w+\.py)", text):
            assert (ROOT / match.group(1)).exists(), match.group(1)

    def test_quickstart_snippet_runs(self):
        """Execute the README's quickstart code block (shortened)."""
        text = (ROOT / "README.md").read_text()
        block = re.search(r"```python\n(.*?)```", text, re.DOTALL).group(1)
        block = block.replace("max_iter=400", "max_iter=30")
        namespace = {}
        exec(compile(block, "<readme>", "exec"), namespace)  # noqa: S102

    def test_architecture_modules_exist(self):
        text = (ROOT / "README.md").read_text()
        arch = text.split("## Architecture")[1].split("##")[0]
        for match in re.finditer(r"^\s{4}(\w+\.py)", arch, re.MULTILINE):
            name = match.group(1)
            hits = list((ROOT / "src" / "repro").rglob(name))
            assert hits, f"README architecture lists missing module {name}"


class TestDesignAndExperiments:
    def test_design_exists_with_inventory(self):
        text = (ROOT / "DESIGN.md").read_text()
        assert "System inventory" in text
        assert "Per-experiment index" in text
        assert "Normative semantics" in text

    def test_design_module_paths_exist(self):
        text = (ROOT / "DESIGN.md").read_text()
        for match in re.finditer(r"`(repro/[\w/]+\.py)`", text):
            assert (ROOT / "src" / match.group(1)).exists(), match.group(1)

    def test_experiments_covers_every_bench(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for bench in (ROOT / "benchmarks").glob("test_*.py"):
            if bench.name.startswith("test_ablation"):
                continue  # grouped under one Ablations section
            assert bench.name in text, f"EXPERIMENTS.md missing {bench.name}"

    def test_cli_ids_documented_exist(self):
        from repro.bench.__main__ import EXPERIMENTS

        text = (ROOT / "EXPERIMENTS.md").read_text()
        for used in re.findall(r"--only ([\w\- ]+)", text):
            for ident in used.split():
                assert ident in EXPERIMENTS, ident


class TestChanges:
    def test_entries_from_pr_23_on_stay_a_paragraph(self):
        """ROADMAP item 8: an entry says what landed; its evidence lives in
        docs/PERFORMANCE.md or the JSON it came from."""
        lines = list(re.finditer(r"^PR (\d+):.*$", (ROOT / "CHANGES.md").read_text(), re.MULTILINE))
        assert lines
        for line in lines:
            if int(line.group(1)) >= 23:
                assert len(line.group(0)) < 1500, f"CHANGES.md: PR {line.group(1)} is too long"
