package repro.core

import org.antlr.v4.runtime.Token
import org.apache.spark.sql.catalyst.parser.{CatalystSqlParser, ParseException, SqlTokens}
import org.apache.spark.sql.catalyst.parser.SqlBaseLexer.{AFTER, AND, DELAY, HENT_END, HENT_START, IDENTIFIER, INTERVAL,
  LEFT_PAREN, RIGHT_PAREN, STREAM, STRING_LITERAL, WATERMARK}

/** The paper's materialization-control modifiers (Extensions 4–7).
  *
  * Grammar (top level of a query only, as proposed in Section 6.5):
  * {{{
  *   query [EMIT STREAM [emitAfter [AND emitAfter]] | EMIT emitAfter [AND emitAfter]]
  *   emitAfter := AFTER WATERMARK
  *              | AFTER DELAY INTERVAL '<n>' <unit>
  * }}}
  *
  * @param stream         render the changelog of the result TVR instead of
  *                       a point-in-time snapshot (Extension 4)
  * @param afterWatermark materialize only complete rows (Extension 5)
  * @param delayMs        periodic materialization with period d (Extension 6;
  *                       combined with `afterWatermark` = Extension 7)
  */
final case class EmitSpec(
    stream: Boolean = false,
    afterWatermark: Boolean = false,
    delayMs: Option[Long] = None,
) {
  def isDefaultTable: Boolean = !stream && !afterWatermark && delayMs.isEmpty
}

object EmitClause {

  /** Parse an SQL day-time interval literal to milliseconds. */
  def intervalMs(text: String): Long = {
    val e =
      try CatalystSqlParser.parseExpression(text)
      catch { case _: ParseException => fail(s"cannot parse interval: '$text'") }
    WindowTvfRewriter.intervalMs(e)
  }

  private def fail(msg: String): Nothing = throw new StreamSqlAnalysisException(msg)

  /** Split `sql` into the base query text and its EMIT specification.
    * Absent an EMIT clause, the default is classic table materialization.
    * The clause starts at the first `EMIT` that Spark's SQL lexer reads
    * at paren depth 0, outside hints: EMIT applies to the top level of a
    * query only (Section 6.5 / Future Work "Nested EMIT"). A modifier may
    * be given once.
    */
  def split(sql: String): (String, EmitSpec) = {
    val trimmed = sql.trim.stripSuffix(";")
    val tokens  = SqlTokens(trimmed)
    var depth   = 0
    val emit = tokens.indexWhere { t =>
      t.getType match {
        case LEFT_PAREN | HENT_START => depth += 1; false
        case RIGHT_PAREN | HENT_END  => depth -= 1; false
        case IDENTIFIER              => depth == 0 && t.getText.equalsIgnoreCase("EMIT")
        case _                       => false
      }
    }
    if (emit < 0) return (trimmed, EmitSpec())
    def text(ts: Seq[Token]) =
      if (ts.isEmpty) "" else trimmed.substring(ts.head.getStartIndex, ts.last.getStopIndex + 1)
    val clause = tokens.drop(emit + 1)
    if (clause.isEmpty) fail("EMIT needs STREAM or a modifier")
    val stream    = clause.head.getType == STREAM
    val modifiers = if (stream) clause.tail else clause
    val parts =
      if (modifiers.isEmpty) Nil
      else modifiers.foldLeft(Vector(Vector.empty[Token])) { (ps, t) =>
        if (t.getType == AND) ps :+ Vector.empty else ps.init :+ (ps.last :+ t)
      }
    val spec = parts.foldLeft(EmitSpec(stream)) { (spec, p) =>
      def once(given: Boolean) = if (given) fail(s"repeated EMIT modifier: '${text(p)}'")
      p.map(_.getType) match {
        case Seq(AFTER, WATERMARK) =>
          once(spec.afterWatermark)
          spec.copy(afterWatermark = true)
        case Seq(AFTER, DELAY, INTERVAL, STRING_LITERAL, _) if p(3).getText.matches("'\\d+'") =>
          once(spec.delayMs.isDefined)
          spec.copy(delayMs = Some(intervalMs(text(p.drop(2)))))
        case _ => fail(s"cannot parse EMIT modifier: '${text(p)}'")
      }
    }
    (trimmed.substring(0, tokens(emit).getStartIndex).trim, spec)
  }
}
