package repro.core

import org.apache.spark.sql.catalyst.parser.{CatalystSqlParser, ParseException}

/** The paper's materialization-control modifiers (Extensions 4–7).
  *
  * Grammar (top level of a query only, as proposed in Section 6.5):
  * {{{
  *   query [EMIT [STREAM] emitAfter [AND emitAfter]]
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
      catch { case _: ParseException => throw new StreamSqlAnalysisException(s"cannot parse interval: '$text'") }
    WindowTvfRewriter.intervalMs(e)
  }

  private val EmitRe =
    raw"(?is)\bEMIT\s+(STREAM\b)?\s*(.*?)\s*;?\s*$$".r.unanchored

  private val AfterWatermarkRe = raw"(?is)^AFTER\s+WATERMARK$$".r
  private val AfterDelayRe     = raw"(?is)^AFTER\s+DELAY\s+(INTERVAL\s+'\d+'\s+\w+)$$".r

  /** Split `sql` into the base query text and its EMIT specification.
    * Absent an EMIT clause, the default is classic table materialization.
    */
  def split(sql: String): (String, EmitSpec) = {
    val trimmed = sql.trim.stripSuffix(";")
    val idx     = indexOfTopLevelEmit(trimmed)
    if (idx < 0) return (trimmed, EmitSpec())
    val base = trimmed.substring(0, idx).trim
    val tail = trimmed.substring(idx).trim
    tail match {
      case EmitRe(streamKw, rest) =>
        val stream = streamKw != null
        var spec   = EmitSpec(stream = stream)
        val parts  = if (rest.trim.isEmpty) Nil
                     else rest.split(raw"(?i)\s+AND\s+").map(_.trim).toList
        parts.foreach {
          case AfterWatermarkRe()   => spec = spec.copy(afterWatermark = true)
          case AfterDelayRe(ivl)    => spec = spec.copy(delayMs = Some(intervalMs(ivl)))
          case other                =>
            throw new StreamSqlAnalysisException(s"cannot parse EMIT modifier: '$other'")
        }
        (base, spec)
      case _ =>
        throw new StreamSqlAnalysisException(s"cannot parse EMIT clause: '$tail'")
    }
  }

  /** Find the EMIT keyword at paren-depth 0, outside literals and comments;
    * EMIT applies to the top level of a query only (Section 6.5 / Future
    * Work "Nested EMIT").
    */
  private def indexOfTopLevelEmit(sql: String): Int = {
    var depth = 0
    def identAt(j: Int) = j >= 0 && j < sql.length && (Character.isLetterOrDigit(sql.charAt(j)) || sql.charAt(j) == '_')
    codeIndices(sql).find { i =>
      sql.charAt(i) match {
        case '(' => depth += 1; false
        case ')' => depth -= 1; false
        case _ => depth == 0 && sql.regionMatches(true, i, "EMIT", 0, 4) && !identAt(i - 1) && !identAt(i + 4)
      }
    }.getOrElse(-1)
  }

  /** Indices of `s` that are SQL code: outside '...' and "..." literals
    * (backslash escapes included), `...` identifiers, `--` comments and
    * `/* */` comments, their delimiters excluded.
    */
  private def codeIndices(s: String): Seq[Int] = {
    val code = Seq.newBuilder[Int]
    var i    = 0
    def skipPast(end: String): Unit = { val j = s.indexOf(end, i); i = if (j < 0) s.length else j + end.length }
    while (i < s.length) {
      s.charAt(i) match {
        case '-' if s.startsWith("--", i) => skipPast("\n")
        case '/' if s.startsWith("/*", i) => i += 2; skipPast("*/")
        case q @ ('\'' | '"' | '`') =>
          i += 1
          while (i < s.length && s.charAt(i) != q) i += (if (q != '`' && s.charAt(i) == '\\') 2 else 1)
          i += 1
        case _ => code += i; i += 1
      }
    }
    code.result()
  }
}
