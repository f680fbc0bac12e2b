"""The structured stderr logger (:mod:`repro.log`)."""

import pytest

from repro import log


@pytest.fixture(autouse=True)
def _reset_level():
    yield
    log.set_level(None)


def _emit(capsys):
    return capsys.readouterr().err


class TestLevels:
    def test_default_is_info(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_LOG", raising=False)
        logger = log.get_logger("t")
        logger.debug("hidden")
        logger.info("shown")
        err = _emit(capsys)
        assert "hidden" not in err
        assert "shown" in err

    def test_env_level(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_LOG", "warning")
        logger = log.get_logger("t")
        logger.info("hidden")
        logger.warning("shown")
        err = _emit(capsys)
        assert "hidden" not in err
        assert "shown" in err

    def test_silent(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_LOG", "silent")
        logger = log.get_logger("t")
        logger.error("hidden")
        assert _emit(capsys) == ""

    def test_set_level_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_LOG", "error")
        log.set_level("debug")
        log.get_logger("t").debug("shown")
        assert "shown" in _emit(capsys)

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            log.set_level("chatty")


class TestVerbosityFlags:
    def test_quiet_wins(self, capsys):
        log.set_verbosity(verbose=2, quiet=True)
        logger = log.get_logger("t")
        logger.info("hidden")
        logger.warning("shown")
        err = _emit(capsys)
        assert "hidden" not in err
        assert "shown" in err

    def test_verbose_enables_debug(self, capsys):
        log.set_verbosity(verbose=1)
        log.get_logger("t").debug("shown")
        assert "shown" in _emit(capsys)

    def test_neither_defers_to_env(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_LOG", "error")
        log.set_verbosity(verbose=0, quiet=False)
        log.get_logger("t").info("hidden")
        assert _emit(capsys) == ""


class TestFormat:
    def test_prefix_and_fields(self, capsys):
        log.set_level("info")
        log.get_logger("runner").info("3/8 barnes", elapsed_s=12.44449)
        err = _emit(capsys)
        assert err.startswith("[repro.runner] 3/8 barnes")
        assert "elapsed_s=12.44" in err

    def test_value_with_spaces_is_quoted(self, capsys):
        log.set_level("info")
        log.get_logger("t").info("msg", what="two words")
        assert "what='two words'" in _emit(capsys)

    def test_get_logger_is_cached(self):
        assert log.get_logger("x") is log.get_logger("x")
