package org.apache.spark.sql.catalyst.parser

import scala.jdk.CollectionConverters._

import org.antlr.v4.runtime.{CharStreams, Token}

/** The tokens Spark's SQL lexer reads in a text, comments and white space
  * left out. The lexer matches keywords in any case only through
  * `UpperCaseCharStream`, which is `private[parser]`, hence this bridge in
  * Spark's package. A token's text is the text as written.
  */
object SqlTokens {
  def apply(sql: String): Seq[Token] = {
    val lexer = new SqlBaseLexer(new UpperCaseCharStream(CharStreams.fromString(sql)))
    lexer.removeErrorListeners() // Spark's parser reports what the lexer could not read
    lexer.getAllTokens.asScala.filter(_.getChannel == Token.DEFAULT_CHANNEL).toSeq
  }
}
