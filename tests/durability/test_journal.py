"""The write-ahead run journal: append, replay, torn-tail survival."""

import json

from repro.durability.journal import (
    JOURNAL_NAME,
    KIND_RUN_BEGIN,
    KIND_RUN_COMMIT,
    KIND_STAGE_COMMIT,
    RunJournal,
)


def _journal(tmp_path):
    return RunJournal(tmp_path / JOURNAL_NAME)


def _begin(journal, *, resume_index=0, fp="fp-in"):
    journal.begin(
        pipeline="climate-pipeline",
        plan_fingerprint="plan-abc",
        backend="serial",
        payload_fingerprint=fp,
        resume_index=resume_index,
    )


def _commit(journal, index, fp="fp-out"):
    journal.commit_stage(
        index=index,
        stage=f"stage-{index}",
        output_fingerprint=fp,
        artifacts={"checkpoint": f"digest-{index}"},
    )


class TestRoundTrip:
    def test_kinds_in_order(self, tmp_path):
        journal = _journal(tmp_path)
        _begin(journal)
        _commit(journal, 0)
        _commit(journal, 1)
        journal.commit_run(output_fingerprint="fp-final")
        kinds = [r["kind"] for r in journal.records()]
        assert kinds == [
            KIND_RUN_BEGIN,
            KIND_STAGE_COMMIT,
            KIND_STAGE_COMMIT,
            KIND_RUN_COMMIT,
        ]

    def test_replay_of_complete_run(self, tmp_path):
        journal = _journal(tmp_path)
        _begin(journal)
        _commit(journal, 0)
        _commit(journal, 1)
        journal.commit_run(output_fingerprint="fp-final")
        replay = journal.last_run()
        assert replay.committed == [0, 1]
        assert replay.run_committed
        assert replay.begin["backend"] == "serial"
        assert replay.stage_commits[1]["artifacts"] == {"checkpoint": "digest-1"}

    def test_replay_of_interrupted_run(self, tmp_path):
        journal = _journal(tmp_path)
        _begin(journal)
        _commit(journal, 0)
        replay = journal.last_run()
        assert replay.committed == [0]
        assert not replay.run_committed

    def test_empty_journal(self, tmp_path):
        replay = _journal(tmp_path).last_run()
        assert replay.begin is None
        assert replay.committed == []
        assert not replay.run_committed


class TestCrossSegmentReplay:
    def test_resume_segment_keeps_restored_prefix(self, tmp_path):
        # run 1 commits stages 0-2 then dies; run 2 resumes at stage 3 —
        # the restored prefix below the resume index must stay committed
        journal = _journal(tmp_path)
        _begin(journal)
        for i in range(3):
            _commit(journal, i)
        _begin(journal, resume_index=3)
        _commit(journal, 3)
        replay = journal.last_run()
        assert replay.committed == [0, 1, 2, 3]

    def test_resume_below_prior_commits_invalidates_them(self, tmp_path):
        # run 2 resumes at stage 1 (e.g. stage 2's checkpoint was
        # quarantined): the stale commits at >= 1 are superseded
        journal = _journal(tmp_path)
        _begin(journal)
        for i in range(3):
            _commit(journal, i)
        _begin(journal, resume_index=1)
        replay = journal.last_run()
        assert replay.committed == [0]

    def test_recommitting_a_stage_drops_later_stale_commits(self, tmp_path):
        journal = _journal(tmp_path)
        _begin(journal)
        for i in range(3):
            _commit(journal, i)
        _begin(journal, resume_index=1)
        _commit(journal, 1, fp="fp-new")
        replay = journal.last_run()
        assert replay.committed == [0, 1]
        assert replay.stage_commits[1]["output_fingerprint"] == "fp-new"

    def test_run_commit_does_not_leak_across_segments(self, tmp_path):
        journal = _journal(tmp_path)
        _begin(journal)
        _commit(journal, 0)
        journal.commit_run(output_fingerprint="fp-final")
        _begin(journal, resume_index=1)  # a fresh (re)run of the same dir
        assert not journal.last_run().run_committed

    def test_recover_record_trims_like_a_resume_begin(self, tmp_path):
        # recovery discarded stage 1 onward: its commits are superseded,
        # but the run's identity (the last run-begin) is kept
        journal = _journal(tmp_path)
        _begin(journal, fp="fp-first")
        for i in range(3):
            _commit(journal, i)
        journal.commit_run(output_fingerprint="fp-final")
        journal.recover(resume_index=1)
        replay = journal.last_run()
        assert replay.committed == [0]
        assert not replay.run_committed
        assert replay.begin["payload_fingerprint"] == "fp-first"


class TestTornTailSurvival:
    def test_torn_last_record_is_dropped_then_healed(self, tmp_path):
        journal = _journal(tmp_path)
        _begin(journal)
        _commit(journal, 0)
        # crash mid-append of stage 1's commit: a torn tail
        with open(journal.path, "a") as fh:
            fh.write('{"schema": 1, "type": "journal", "kind": "stage-com')
        replay = journal.last_run()
        assert replay.committed == [0]
        # the next append physically heals the tail
        _commit(journal, 1)
        lines = journal.path.read_text().splitlines()
        assert all(json.loads(line) for line in lines)
        assert journal.last_run().committed == [0, 1]

    def test_non_journal_rows_ignored(self, tmp_path):
        journal = _journal(tmp_path)
        _begin(journal)
        with open(journal.path, "a") as fh:
            fh.write(json.dumps({"type": "other", "kind": "run-begin"}) + "\n")
        assert len(journal.records()) == 1
