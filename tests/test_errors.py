import pytest

from freqmia.errors import (ConfigurationError, EvaluationError, IngestionError, InputError,
                            reading)


class TestReading:
    def test_unnamed_input_error_gets_the_path_and_keeps_its_type(self):
        with pytest.raises(ConfigurationError) as info:
            with reading("c.ini"):
                raise ConfigurationError("unknown section [x]")
        assert str(info.value) == "c.ini: unknown section [x]"
        assert info.value.path == "c.ini" and info.value.line is None

    def test_line_level_form(self):
        with pytest.raises(IngestionError) as info:
            with reading("scores.csv"):
                raise IngestionError("membership must be 0 or 1, got '2'", line=3)
        assert str(info.value) == "scores.csv, line 3: membership must be 0 or 1, got '2'"

    def test_outside_a_reader_the_message_is_bare(self):
        assert str(IngestionError("bad", line=4)) == "bad"
        assert str(ConfigurationError("bad")) == "bad"

    def test_error_naming_a_file_passes_unchanged(self):
        with pytest.raises(IngestionError) as info:
            with reading("data/manifest.csv"):
                with reading("data/a.pgm"):
                    raise IngestionError("truncated PGM header")
        assert str(info.value) == "data/a.pgm: truncated PGM header"

    def test_undecodable_text_is_named(self):
        with pytest.raises(IngestionError) as info:
            with reading("m.csv"):
                b"\xff".decode("utf-8")
        assert str(info.value) == "m.csv: not UTF-8 text (invalid start byte)"
        assert isinstance(info.value.__cause__, UnicodeDecodeError)

    def test_os_error_is_named(self, tmp_path):
        missing = tmp_path / "ghost.fmia"
        with pytest.raises(IngestionError) as info:
            with reading(missing):
                missing.read_bytes()
        assert str(info.value) == f"{missing}: No such file or directory"

    def test_other_errors_pass_through(self):
        with pytest.raises(EvaluationError, match="^need scores$"):
            with reading("x"):
                raise EvaluationError("need scores")
        with pytest.raises(ValueError, match="^plain$"):
            with reading("x"):
                raise ValueError("plain")

    def test_input_errors_share_one_base(self):
        assert issubclass(ConfigurationError, InputError)
        assert issubclass(IngestionError, InputError)
